/* Generated software half. Do not edit. */
#include <stdint.h>
#include "pingpong_sw.h"

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

/* ---- class Ping ---- */

typedef enum {
    PING_ST_WAITING = 0
} Ping_state_t;

typedef enum {
    PING_EV_HIT = 0
} Ping_event_t;

typedef struct {
    Ping_state_t state;
    uint32_t hits;
} Ping_t;

static Ping_t inst_ping;

static void Ping_dispatch(Ping_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case PING_ST_WAITING:
        switch (ev) {
        case PING_EV_HIT: {
            self->hits = (uint32_t)(self->hits + 1u);
            { /* send pong.Hit: cross-boundary */
                uint8_t payload[1] = {0};
                pingpong_bus_send(SIG_PONG_HIT, payload, SIG_PONG_HIT_BITS);
            }
            self->state = PING_ST_WAITING;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

void pingpong_reset(void) {
    uint32_t k;
    inst_ping.state = PING_ST_WAITING;
    inst_ping.hits = 0u;
    for (k = 0; k < 1u; k++) {
        queues[k].head = 0;
        queues[k].count = 0;
    }
}

static void sw_dispatch(uint32_t inst_id, uint32_t ev,
                        const uint32_t *args) {
    switch (inst_id) {
    case SWI_PING:
        Ping_dispatch(&inst_ping, ev, args);
        break;
    default:
        break;
    }
}

int pingpong_step(void) {
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

void pingpong_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    queue_push(inst_id, ev, args, nargs);
}

void pingpong_bus_deliver(uint32_t inst_id, uint32_t sig_id,
        const uint8_t *payload) {
    (void)inst_id;
    (void)sig_id;
    (void)payload;
}
