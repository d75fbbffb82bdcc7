/* Generated software interface header. Do not edit. */
#ifndef WIDTHS_SW_H
#define WIDTHS_SW_H

#include <stdint.h>

/* model hash 95a1fd8728552a1b */

/* Boundary signal ids and payload widths */
#define SIG_SINK_STASH 0
#define SIG_SINK_STASH_BITS 33

/* Software instance ids: the `inst_id` of widths_inject */
#define SWI_GADGET 0u
#define SW_INSTANCE_COUNT 1u

/* Event ids of each software class: the `ev` of widths_inject */
typedef enum {
    GADGET_EV_LOAD = 0,
    GADGET_EV_MIX = 1
} Gadget_event_t;

/* Provided by the platform: outbound boundary transport. */
void widths_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits);

void widths_reset(void);
int widths_step(void);
void widths_inject(uint32_t inst_id, uint32_t ev, const uint32_t *args, uint32_t nargs);
void widths_bus_deliver(uint32_t sig_id, const uint8_t *payload);

#endif /* WIDTHS_SW_H */
