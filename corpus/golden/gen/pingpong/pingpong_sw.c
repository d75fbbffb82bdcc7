/* Generated software half. Do not edit. */
#include <stdint.h>
#include "pingpong_sw.h"

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

void pingpong_inject(uint32_t inst_id, uint32_t ev,
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

/* ---- class Ping ---- */

typedef enum {
    PING_ST_WAITING = 0
} Ping_state_t;

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
    inst_ping.state = PING_ST_WAITING;
    inst_ping.hits = 0u;
    queue_head = 0u;
    queue_count = 0u;
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

void pingpong_bus_deliver(uint32_t sig_id, const uint8_t *payload) {
    (void)sig_id;
    (void)payload;
}
