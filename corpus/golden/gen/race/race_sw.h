/* Generated software interface header. Do not edit. */
#ifndef RACE_SW_H
#define RACE_SW_H

#include <stdint.h>

/* model hash f6fefb4719922cba */

/* Boundary signal ids and payload widths */
#define SIG_REC_PUT 0
#define SIG_REC_PUT_BITS 8

/* Software instance ids: the `inst_id` of race_inject */
#define SWI_A 0u
#define SWI_REC 1u
#define SW_INSTANCE_COUNT 2u

/* Event ids of each software class: the `ev` of race_inject */
typedef enum {
    ALPHA_EV_KICK = 0
} Alpha_event_t;

typedef enum {
    RECORDER_EV_PUT = 0
} Recorder_event_t;

/* Provided by the platform: outbound boundary transport. */
void race_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits);

void race_reset(void);
int race_step(void);
void race_inject(uint32_t inst_id, uint32_t ev, const uint32_t *args, uint32_t nargs);
void race_bus_deliver(uint32_t sig_id, const uint8_t *payload);

#endif /* RACE_SW_H */
