/* Generated software interface header. Do not edit. */
#ifndef CHAIN_SW_H
#define CHAIN_SW_H

#include <stdint.h>

/* model hash 3ae4964ef9eb70f9 */

/* Boundary signal ids and payload widths */
#define SIG_MIRROR_ECHO 0
#define SIG_MIRROR_ECHO_BITS 0

/* Software instance ids: the `inst_id` of chain_inject */
#define SWI_ME 0u
#define SW_INSTANCE_COUNT 1u

/* Event ids of each software class: the `ev` of chain_inject */
typedef enum {
    BOUNCER_EV_POKE = 0
} Bouncer_event_t;

/* Provided by the platform: outbound boundary transport. */
void chain_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits);

void chain_reset(void);
int chain_step(void);
void chain_inject(uint32_t inst_id, uint32_t ev, const uint32_t *args, uint32_t nargs);
void chain_bus_deliver(uint32_t sig_id, const uint8_t *payload);

#endif /* CHAIN_SW_H */
