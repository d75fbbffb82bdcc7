/* Generated software half. Do not edit. */
#include <stdint.h>
#include "chain_sw.h"

#define QUEUE_CAP 64u /* 64 per SW instance */
#define MAX_ARGS 1u

typedef struct {
    uint32_t inst;
    uint32_t ev;
    uint32_t args[MAX_ARGS];
} event_slot_t;

/* one FIFO for every software instance, in enqueue order */
static event_slot_t queue[QUEUE_CAP];
static uint32_t queue_head;
static uint32_t queue_count;

void chain_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    event_slot_t *slot;
    uint32_t k;
    if (queue_count == QUEUE_CAP) {
        return; /* overflow: dropped */
    }
    slot = &queue[(queue_head + queue_count) % QUEUE_CAP];
    slot->inst = inst_id;
    slot->ev = ev;
    for (k = 0; k < MAX_ARGS; k++) {
        slot->args[k] = (args != 0 && k < nargs) ? args[k] : 0u;
    }
    queue_count++;
}

/* ---- class Bouncer ---- */

typedef enum {
    BOUNCER_ST_RUN = 0
} Bouncer_state_t;

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
                chain_inject(SWI_ME, BOUNCER_EV_POKE, 0, 0u);
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
    inst_me.state = BOUNCER_ST_RUN;
    inst_me.n = 0u;
    queue_head = 0u;
    queue_count = 0u;
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
    event_slot_t slot;
    if (queue_count == 0u) {
        return 0;
    }
    slot = queue[queue_head];
    queue_head = (queue_head + 1u) % QUEUE_CAP;
    queue_count--;
    sw_dispatch(slot.inst, slot.ev, slot.args);
    return 1;
}

void chain_bus_deliver(uint32_t sig_id, const uint8_t *payload) {
    (void)sig_id;
    (void)payload;
}
