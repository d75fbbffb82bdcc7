/* Generated software half. Do not edit. */
#include <stdint.h>
#include "race_sw.h"

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

static event_queue_t queues[2];

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

/* ---- class Alpha ---- */

typedef enum {
    ALPHA_ST_RUN = 0
} Alpha_state_t;

typedef enum {
    ALPHA_EV_KICK = 0
} Alpha_event_t;

typedef struct {
    Alpha_state_t state;
} Alpha_t;

/* ---- class Recorder ---- */

typedef enum {
    RECORDER_ST_READY = 0
} Recorder_state_t;

typedef enum {
    RECORDER_EV_PUT = 0
} Recorder_event_t;

typedef struct {
    Recorder_state_t state;
    uint8_t last;
    uint8_t puts;
} Recorder_t;

static Alpha_t inst_a;
static Recorder_t inst_rec;

static uint32_t get_bits(const uint8_t *buf, uint32_t offset,
                         uint32_t width) {
    uint32_t value = 0;
    uint32_t k;
    for (k = 0; k < width; k++) {
        uint32_t bit = offset + k;
        if ((buf[bit / 8u] >> (bit % 8u)) & 1u) {
            value |= (1u << k);
        }
    }
    return value;
}

static void Alpha_dispatch(Alpha_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case ALPHA_ST_RUN:
        switch (ev) {
        case ALPHA_EV_KICK: {
            {
                uint32_t sargs[MAX_ARGS];
                sargs[0] = (uint32_t)1u;
                queue_push(SWI_REC, RECORDER_EV_PUT, sargs, 1u);
            }
            self->state = ALPHA_ST_RUN;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

static void Recorder_dispatch(Recorder_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case RECORDER_ST_READY:
        switch (ev) {
        case RECORDER_EV_PUT: {
            self->last = (uint8_t)args[0];
            self->puts = (uint8_t)(self->puts + 1u);
            self->state = RECORDER_ST_READY;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

void race_reset(void) {
    uint32_t k;
    inst_a.state = ALPHA_ST_RUN;
    inst_rec.state = RECORDER_ST_READY;
    inst_rec.last = 0u;
    inst_rec.puts = 0u;
    for (k = 0; k < 2u; k++) {
        queues[k].head = 0;
        queues[k].count = 0;
    }
}

static void sw_dispatch(uint32_t inst_id, uint32_t ev,
                        const uint32_t *args) {
    switch (inst_id) {
    case SWI_A:
        Alpha_dispatch(&inst_a, ev, args);
        break;
    case SWI_REC:
        Recorder_dispatch(&inst_rec, ev, args);
        break;
    default:
        break;
    }
}

int race_step(void) {
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

void race_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    queue_push(inst_id, ev, args, nargs);
}

void race_bus_deliver(uint32_t inst_id, uint32_t sig_id,
        const uint8_t *payload) {
    uint32_t args[MAX_ARGS];
    uint32_t k;
    (void)payload;
    for (k = 0; k < MAX_ARGS; k++) {
        args[k] = 0;
    }
    switch (sig_id) {
    case SIG_RECORDER_PUT: {
        args[0] = get_bits(payload, 0u, 8u);
        queue_push(inst_id, RECORDER_EV_PUT, args, 1u);
        break;
    }
    default:
        break;
    }
}
