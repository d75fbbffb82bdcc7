/* Generated software half. Do not edit. */
#include <stdint.h>
#include "race_sw.h"

#define QUEUE_CAP 128u /* 64 per SW instance */
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

void race_inject(uint32_t inst_id, uint32_t ev,
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

/* ---- class Alpha ---- */

typedef enum {
    ALPHA_ST_RUN = 0
} Alpha_state_t;

typedef struct {
    Alpha_state_t state;
} Alpha_t;

/* ---- class Recorder ---- */

typedef enum {
    RECORDER_ST_READY = 0
} Recorder_state_t;

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
                race_inject(SWI_REC, RECORDER_EV_PUT, sargs, 1u);
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
    inst_a.state = ALPHA_ST_RUN;
    inst_rec.state = RECORDER_ST_READY;
    inst_rec.last = 0u;
    inst_rec.puts = 0u;
    queue_head = 0u;
    queue_count = 0u;
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

void race_bus_deliver(uint32_t sig_id, const uint8_t *payload) {
    uint32_t args[MAX_ARGS];
    uint32_t k;
    (void)payload;
    for (k = 0; k < MAX_ARGS; k++) {
        args[k] = 0;
    }
    switch (sig_id) {
    case SIG_REC_PUT: {
        args[0] = get_bits(payload, 0u, 8u);
        race_inject(SWI_REC, RECORDER_EV_PUT, args, 1u);
        break;
    }
    default:
        break;
    }
}
