/* Generated software interface header. Do not edit. */
#ifndef PIPELINE_SW_H
#define PIPELINE_SW_H

#include <stdint.h>

/* model hash 718ed610c48af5b2 */

/* Boundary signal ids and payload widths */
#define SIG_COUNTER_BUMP 0
#define SIG_COUNTER_BUMP_BITS 8
#define SIG_REPORTER_REPORT 1
#define SIG_REPORTER_REPORT_BITS 8

/* Software instance ids: the `inst_id` of pipeline_inject */
#define SWI_TICKER 0u
#define SWI_REPORTER 1u
#define SW_INSTANCE_COUNT 2u

/* Event ids of each software class: the `ev` of pipeline_inject */
typedef enum {
    TICKER_EV_GO = 0
} Ticker_event_t;

typedef enum {
    REPORTER_EV_REPORT = 0
} Reporter_event_t;

/* Provided by the platform: outbound boundary transport. */
void pipeline_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits);

void pipeline_reset(void);
int pipeline_step(void);
void pipeline_inject(uint32_t inst_id, uint32_t ev, const uint32_t *args, uint32_t nargs);
void pipeline_bus_deliver(uint32_t sig_id, const uint8_t *payload);

#endif /* PIPELINE_SW_H */
