-- Generated hardware half. Do not edit.
-- model hash 95a1fd8728552a1b

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package widths_iface is
    -- Boundary signal ids and payload widths
    constant SIG_SINK_STASH : natural := 0;
    constant SIG_SINK_STASH_BITS : natural := 33;
    -- Class-local event ids of the hardware classes
    constant EV_SINK_STASH : natural := 0;
    function to_u1(b : boolean) return unsigned;
    function to_bool(u : unsigned) return boolean;
end package widths_iface;

package body widths_iface is
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
end package body widths_iface;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.widths_iface.all;

entity Sink is
    port (
        clk : in std_logic;
        rst : in std_logic;
        ev_valid : in std_logic;
        ev_id : in natural range 0 to 0;
        ev_args : in std_logic_vector(32 downto 0);
        -- one send slot per send statement, in document order
        send_valid : out std_logic_vector(0 downto 0);
        send_args : out std_logic_vector(0 downto 0)
    );
end entity Sink;

architecture rtl of Sink is
    type state_t is (ST_OPEN);
    signal state : state_t;
    signal r_got : unsigned(31 downto 0);
    signal r_flagged : unsigned(0 downto 0);
begin
    step : process (clk)
        variable v_got : unsigned(31 downto 0);
        variable v_flagged : unsigned(0 downto 0);
    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ST_OPEN;
                r_got <= to_unsigned(0, 32);
                r_flagged <= to_unsigned(0, 1);
                send_valid <= (others => '0');
                send_args <= (others => '0');
            else
                send_valid <= (others => '0');
                if ev_valid = '1' then
                    v_got := r_got;
                    v_flagged := r_flagged;
                    case state is
                        when ST_OPEN =>
                            case ev_id is
                                when EV_SINK_STASH =>
                                    v_got := unsigned(ev_args(31 downto 0));
                                    v_flagged := unsigned(ev_args(32 downto 32));
                                    state <= ST_OPEN;
                                when others =>
                                    null; -- unhandled in this state: dropped
                            end case;
                    end case;
                    r_got <= v_got;
                    r_flagged <= v_flagged;
                end if;
            end if;
        end if;
    end process step;
end architecture rtl;

