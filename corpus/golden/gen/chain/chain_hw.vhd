-- Generated hardware half. Do not edit.
-- model hash 3ae4964ef9eb70f9

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package chain_iface is
    -- Boundary signal ids and payload widths
    constant SIG_MIRROR_ECHO : natural := 0;
    constant SIG_MIRROR_ECHO_BITS : natural := 0;
    -- Class-local event ids of the hardware classes
    constant EV_MIRROR_ECHO : natural := 0;
    function to_u1(b : boolean) return unsigned;
    function to_bool(u : unsigned) return boolean;
end package chain_iface;

package body chain_iface is
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
end package body chain_iface;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.chain_iface.all;

entity Mirror is
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
end entity Mirror;

architecture rtl of Mirror is
    type state_t is (ST_WATCH);
    signal state : state_t;
    signal r_seen : unsigned(7 downto 0);
begin
    step : process (clk)
        variable v_seen : unsigned(7 downto 0);
    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ST_WATCH;
                r_seen <= to_unsigned(0, 8);
                send_valid <= (others => '0');
                send_args <= (others => '0');
            else
                send_valid <= (others => '0');
                if ev_valid = '1' then
                    v_seen := r_seen;
                    case state is
                        when ST_WATCH =>
                            case ev_id is
                                when EV_MIRROR_ECHO =>
                                    v_seen := (v_seen + to_unsigned(1, 8));
                                    state <= ST_WATCH;
                                when others =>
                                    null; -- unhandled in this state: dropped
                            end case;
                    end case;
                    r_seen <= v_seen;
                end if;
            end if;
        end if;
    end process step;
end architecture rtl;

