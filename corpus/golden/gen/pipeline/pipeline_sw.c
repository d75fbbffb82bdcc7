/* Generated software half. Do not edit. */
#include <stdint.h>
#include "pipeline_sw.h"

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

/* ---- class Ticker ---- */

typedef enum {
    TICKER_ST_IDLE = 0
} Ticker_state_t;

typedef enum {
    TICKER_EV_GO = 0
} Ticker_event_t;

typedef struct {
    Ticker_state_t state;
    uint8_t fired;
} Ticker_t;

/* ---- class Reporter ---- */

typedef enum {
    REPORTER_ST_READY = 0
} Reporter_state_t;

typedef enum {
    REPORTER_EV_REPORT = 0
} Reporter_event_t;

typedef struct {
    Reporter_state_t state;
    uint8_t last;
    uint8_t count;
} Reporter_t;

static Ticker_t inst_ticker;
static Reporter_t inst_reporter;

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

static void Ticker_dispatch(Ticker_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case TICKER_ST_IDLE:
        switch (ev) {
        case TICKER_EV_GO: {
            self->fired = (uint8_t)(self->fired + 1u);
            { /* send counter.Bump: cross-boundary */
                uint8_t payload[1] = {0};
                put_bits(payload, 0u, 8u, (uint32_t)1u);
                pipeline_bus_send(SIG_COUNTER_BUMP, payload, SIG_COUNTER_BUMP_BITS);
            }
            self->state = TICKER_ST_IDLE;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

static void Reporter_dispatch(Reporter_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
    switch (self->state) {
    case REPORTER_ST_READY:
        switch (ev) {
        case REPORTER_EV_REPORT: {
            self->last = (uint8_t)args[0];
            self->count = (uint8_t)(self->count + 1u);
            self->state = REPORTER_ST_READY;
            break;
        }
        default:
            break; /* unhandled in this state: dropped */
        }
        break;
    }
}

void pipeline_reset(void) {
    uint32_t k;
    inst_ticker.state = TICKER_ST_IDLE;
    inst_ticker.fired = 0u;
    inst_reporter.state = REPORTER_ST_READY;
    inst_reporter.last = 0u;
    inst_reporter.count = 0u;
    for (k = 0; k < 2u; k++) {
        queues[k].head = 0;
        queues[k].count = 0;
    }
}

static void sw_dispatch(uint32_t inst_id, uint32_t ev,
                        const uint32_t *args) {
    switch (inst_id) {
    case SWI_TICKER:
        Ticker_dispatch(&inst_ticker, ev, args);
        break;
    case SWI_REPORTER:
        Reporter_dispatch(&inst_reporter, ev, args);
        break;
    default:
        break;
    }
}

int pipeline_step(void) {
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

void pipeline_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    queue_push(inst_id, ev, args, nargs);
}

void pipeline_bus_deliver(uint32_t inst_id, uint32_t sig_id,
        const uint8_t *payload) {
    uint32_t args[MAX_ARGS];
    uint32_t k;
    (void)payload;
    for (k = 0; k < MAX_ARGS; k++) {
        args[k] = 0;
    }
    switch (sig_id) {
    case SIG_REPORTER_REPORT: {
        args[0] = get_bits(payload, 0u, 8u);
        queue_push(inst_id, REPORTER_EV_REPORT, args, 1u);
        break;
    }
    default:
        break;
    }
}
