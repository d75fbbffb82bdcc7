/* Generated software half. Do not edit. */
#include <stdint.h>
#include "chain_sw.h"

#define QUEUE_CAP 64u
#define MAX_ARGS 1u

typedef struct {
    uint32_t ev;
    uint32_t args[MAX_ARGS];
} event_slot_t;

typedef struct {
    event_slot_t slots[QUEUE_CAP];
    uint32_t head;
    uint32_t count;
} event_queue_t;

static event_queue_t queues[1];

static void queue_push(uint32_t inst_id, uint32_t ev,
                       const uint32_t *args, uint32_t nargs) {
    event_queue_t *q = &queues[inst_id];
    event_slot_t *slot;
    uint32_t k;
    if (q->count == QUEUE_CAP) {
        return; /* overflow: drop (platform sizes QUEUE_CAP) */
    }
    slot = &q->slots[(q->head + q->count) % QUEUE_CAP];
    slot->ev = ev;
    for (k = 0; k < MAX_ARGS; k++) {
        slot->args[k] = (args != 0 && k < nargs) ? args[k] : 0u;
    }
    q->count++;
}

/* ---- class Bouncer ---- */

typedef enum {
    BOUNCER_ST_RUN = 0
} Bouncer_state_t;

typedef enum {
    BOUNCER_EV_POKE = 0
} Bouncer_event_t;

typedef struct {
    Bouncer_state_t state;
    uint8_t n;
} Bouncer_t;

static Bouncer_t inst_me;

static void Bouncer_dispatch(Bouncer_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case BOUNCER_ST_RUN:
        switch (ev) {
        case BOUNCER_EV_POKE: {
            self->n = (uint8_t)(self->n + 1u);
            { /* send mirror.Echo: cross-boundary */
                uint8_t payload[1] = {0};
                chain_bus_send(SIG_MIRROR_ECHO, payload, SIG_MIRROR_ECHO_BITS);
            }
            if ((uint8_t)(self->n < 5u)) {
                queue_push(SWI_ME, BOUNCER_EV_POKE, 0, 0u);
            }
            self->state = BOUNCER_ST_RUN;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

void chain_reset(void) {
    uint32_t k;
    inst_me.state = BOUNCER_ST_RUN;
    inst_me.n = 0u;
    for (k = 0; k < 1u; k++) {
        queues[k].head = 0;
        queues[k].count = 0;
    }
}

static void sw_dispatch(uint32_t inst_id, uint32_t ev,
                        const uint32_t *args) {
    switch (inst_id) {
    case SWI_ME:
        Bouncer_dispatch(&inst_me, ev, args);
        break;
    default:
        break;
    }
}

int chain_step(void) {
    uint32_t i;
    for (i = 0; i < SW_INSTANCE_COUNT; i++) {
        event_queue_t *q = &queues[i];
        if (q->count > 0u) {
            event_slot_t slot = q->slots[q->head];
            q->head = (q->head + 1u) % QUEUE_CAP;
            q->count--;
            sw_dispatch(i, slot.ev, slot.args);
            return 1;
        }
    }
    return 0;
}

void chain_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    queue_push(inst_id, ev, args, nargs);
}

void chain_bus_deliver(uint32_t inst_id, uint32_t sig_id,
        const uint8_t *payload) {
    (void)inst_id;
    (void)sig_id;
    (void)payload;
}
