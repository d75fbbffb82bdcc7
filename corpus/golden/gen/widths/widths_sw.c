/* Generated software half. Do not edit. */
#include <stdint.h>
#include "widths_sw.h"

#define QUEUE_CAP 64u
#define MAX_ARGS 4u

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

/* ---- class Gadget ---- */

typedef enum {
    GADGET_ST_FRESH = 0,
    GADGET_ST_LOADED = 1
} Gadget_state_t;

typedef enum {
    GADGET_EV_LOAD = 0,
    GADGET_EV_MIX = 1
} Gadget_event_t;

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
    uint32_t k;
    inst_gadget.state = GADGET_ST_FRESH;
    inst_gadget.armed = 0u;
    inst_gadget.small = 7u;
    inst_gadget.medium = 0u;
    inst_gadget.large = 0u;
    for (k = 0; k < 1u; k++) {
        queues[k].head = 0;
        queues[k].count = 0;
    }
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

void widths_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    queue_push(inst_id, ev, args, nargs);
}

void widths_bus_deliver(uint32_t inst_id, uint32_t sig_id,
        const uint8_t *payload) {
    (void)inst_id;
    (void)sig_id;
    (void)payload;
}
