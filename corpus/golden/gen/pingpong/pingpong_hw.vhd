-- Generated hardware half. Do not edit.
-- model hash 48c822885dc19821

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package pingpong_iface is
    -- Boundary signal ids and payload widths
    constant SIG_PONG_HIT : natural := 0;
    constant SIG_PONG_HIT_BITS : natural := 0;
    -- Class-local event ids of the hardware classes
    constant EV_PONG_HIT : natural := 0;
    function to_u1(b : boolean) return unsigned;
    function to_bool(u : unsigned) return boolean;
end package pingpong_iface;

package body pingpong_iface is
    function to_u1(b : boolean) return unsigned is
    begin
        if b then
            return to_unsigned(1, 1);
        else
            return to_unsigned(0, 1);
        end if;
    end function;

    function to_bool(u : unsigned) return boolean is
    begin
        return u /= to_unsigned(0, u'length);
    end function;
end package body pingpong_iface;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.pingpong_iface.all;

entity Pong is
    port (
        clk : in std_logic;
        rst : in std_logic;
        ev_valid : in std_logic;
        ev_id : in natural range 0 to 0;
        ev_args : in std_logic_vector(0 downto 0);
        -- one send slot per send statement, in document order
        send_valid : out std_logic_vector(0 downto 0);
        send_args : out std_logic_vector(0 downto 0)
    );
end entity Pong;

architecture rtl of Pong is
    type state_t is (ST_WAITING);
    signal state : state_t;
    signal r_hits : unsigned(31 downto 0);
begin
    step : process (clk)
        variable v_hits : unsigned(31 downto 0);
    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ST_WAITING;
                r_hits <= to_unsigned(0, 32);
                send_valid <= (others => '0');
                send_args <= (others => '0');
            else
                send_valid <= (others => '0');
                if ev_valid = '1' then
                    v_hits := r_hits;
                    case state is
                        when ST_WAITING =>
                            case ev_id is
                                when EV_PONG_HIT =>
                                    v_hits := (v_hits + to_unsigned(1, 32));
                                    state <= ST_WAITING;
                                when others =>
                                    null; -- unhandled in this state: dropped
                            end case;
                    end case;
                    r_hits <= v_hits;
                end if;
            end if;
        end if;
    end process step;
end architecture rtl;

