/* Generated software half. Do not edit. */
#include <stdint.h>
#include "pipeline_sw.h"

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

void pipeline_inject(uint32_t inst_id, uint32_t ev,
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

/* ---- class Ticker ---- */

typedef enum {
    TICKER_ST_IDLE = 0
} Ticker_state_t;

typedef struct {
    Ticker_state_t state;
    uint8_t fired;
} Ticker_t;

/* ---- class Reporter ---- */

typedef enum {
    REPORTER_ST_READY = 0
} Reporter_state_t;

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
    inst_ticker.state = TICKER_ST_IDLE;
    inst_ticker.fired = 0u;
    inst_reporter.state = REPORTER_ST_READY;
    inst_reporter.last = 0u;
    inst_reporter.count = 0u;
    queue_head = 0u;
    queue_count = 0u;
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

void pipeline_bus_deliver(uint32_t sig_id, const uint8_t *payload) {
    uint32_t args[MAX_ARGS];
    uint32_t k;
    (void)payload;
    for (k = 0; k < MAX_ARGS; k++) {
        args[k] = 0;
    }
    switch (sig_id) {
    case SIG_REPORTER_REPORT: {
        args[0] = get_bits(payload, 0u, 8u);
        pipeline_inject(SWI_REPORTER, REPORTER_EV_REPORT, args, 1u);
        break;
    }
    default:
        break;
    }
}
