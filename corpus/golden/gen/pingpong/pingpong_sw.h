/* Generated software interface header. Do not edit. */
#ifndef PINGPONG_SW_H
#define PINGPONG_SW_H

#include <stdint.h>

/* model hash 48c822885dc19821 */

/* Boundary signal ids and payload widths */
#define SIG_PONG_HIT 0
#define SIG_PONG_HIT_BITS 0

/* Software instance ids: the `inst_id` of pingpong_inject */
#define SWI_PING 0u
#define SW_INSTANCE_COUNT 1u

/* Event ids of each software class: the `ev` of pingpong_inject */
typedef enum {
    PING_EV_HIT = 0
} Ping_event_t;

/* Provided by the platform: outbound boundary transport. */
void pingpong_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits);

void pingpong_reset(void);
int pingpong_step(void);
void pingpong_inject(uint32_t inst_id, uint32_t ev, const uint32_t *args, uint32_t nargs);
void pingpong_bus_deliver(uint32_t sig_id, const uint8_t *payload);

#endif /* PINGPONG_SW_H */
