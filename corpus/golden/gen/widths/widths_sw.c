/* Generated software half. Do not edit. */
#include <stdint.h>
#include "widths_sw.h"

#define QUEUE_CAP 64u /* 64 per SW instance */
#define MAX_ARGS 4u

typedef struct {
    uint32_t inst;
    uint32_t ev;
    uint32_t args[MAX_ARGS];
} event_slot_t;

/* one FIFO for every software instance, in enqueue order */
static event_slot_t queue[QUEUE_CAP];
static uint32_t queue_head;
static uint32_t queue_count;

void widths_inject(uint32_t inst_id, uint32_t ev,
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

/* ---- class Gadget ---- */

typedef enum {
    GADGET_ST_FRESH = 0,
    GADGET_ST_LOADED = 1
} Gadget_state_t;

typedef struct {
    Gadget_state_t state;
    uint8_t armed;
    uint8_t small;
    uint16_t medium;
    uint32_t large;
} Gadget_t;

static Gadget_t inst_gadget;

static void put_bits(uint8_t *buf, uint32_t offset, uint32_t width,
                     uint32_t value) {
    uint32_t k;
    for (k = 0; k < width; k++) {
        uint32_t bit = offset + k;
        if ((value >> k) & 1u) {
            buf[bit / 8u] |= (uint8_t)(1u << (bit % 8u));
        }
    }
}

static void Gadget_dispatch(Gadget_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case GADGET_ST_FRESH:
        switch (ev) {
        case GADGET_EV_LOAD: {
            self->armed = (uint8_t)args[0];
            self->small = (uint8_t)(self->small + (uint8_t)args[1]);
            self->medium = (uint16_t)((uint32_t)(uint16_t)args[2] * 2u);
            self->large = (uint32_t)((uint32_t)args[3] - 1u);
            self->state = GADGET_ST_LOADED;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    case GADGET_ST_LOADED:
        switch (ev) {
        case GADGET_EV_MIX: {
            if ((uint8_t)(self->armed && (uint8_t)(self->small > 10u))) {
                self->large = (uint32_t)(self->large + 1u);
            } else {
                self->medium = (uint16_t)(self->medium + 1u);
            }
            { /* send sink.Stash: cross-boundary */
                uint8_t payload[5] = {0};
                put_bits(payload, 0u, 32u, (uint32_t)self->large);
                put_bits(payload, 32u, 1u, (uint32_t)self->armed);
                widths_bus_send(SIG_SINK_STASH, payload, SIG_SINK_STASH_BITS);
            }
            self->state = GADGET_ST_FRESH;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

void widths_reset(void) {
    inst_gadget.state = GADGET_ST_FRESH;
    inst_gadget.armed = 0u;
    inst_gadget.small = 7u;
    inst_gadget.medium = 0u;
    inst_gadget.large = 0u;
    queue_head = 0u;
    queue_count = 0u;
}

static void sw_dispatch(uint32_t inst_id, uint32_t ev,
                        const uint32_t *args) {
    switch (inst_id) {
    case SWI_GADGET:
        Gadget_dispatch(&inst_gadget, ev, args);
        break;
    default:
        break;
    }
}

int widths_step(void) {
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

void widths_bus_deliver(uint32_t sig_id, const uint8_t *payload) {
    (void)sig_id;
    (void)payload;
}
