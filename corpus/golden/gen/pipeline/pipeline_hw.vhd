-- Generated hardware half. Do not edit.
-- model hash 718ed610c48af5b2

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package pipeline_iface is
    -- Boundary signal ids and payload widths
    constant SIG_COUNTER_BUMP : natural := 0;
    constant SIG_COUNTER_BUMP_BITS : natural := 8;
    constant SIG_REPORTER_REPORT : natural := 1;
    constant SIG_REPORTER_REPORT_BITS : natural := 8;
    -- Class-local event ids of the hardware classes
    constant EV_COUNTER_BUMP : natural := 0;
    function to_u1(b : boolean) return unsigned;
    function to_bool(u : unsigned) return boolean;
end package pipeline_iface;

package body pipeline_iface is
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
end package body pipeline_iface;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.pipeline_iface.all;

entity Counter is
    port (
        clk : in std_logic;
        rst : in std_logic;
        ev_valid : in std_logic;
        ev_id : in natural range 0 to 0;
        ev_args : in std_logic_vector(7 downto 0);
        -- one send slot per send statement, in document order
        -- send_valid(0): reporter.Report (SIG_REPORTER_REPORT)
        send_valid : out std_logic_vector(0 downto 0);
        send_args : out std_logic_vector(7 downto 0)
    );
end entity Counter;

architecture rtl of Counter is
    type state_t is (ST_COUNTING);
    signal state : state_t;
    signal r_total : unsigned(7 downto 0);
begin
    step : process (clk)
        variable v_total : unsigned(7 downto 0);
    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ST_COUNTING;
                r_total <= to_unsigned(0, 8);
                send_valid <= (others => '0');
                send_args <= (others => '0');
            else
                send_valid <= (others => '0');
                if ev_valid = '1' then
                    v_total := r_total;
                    case state is
                        when ST_COUNTING =>
                            case ev_id is
                                when EV_COUNTER_BUMP =>
                                    v_total := (v_total + unsigned(ev_args(7 downto 0)));
                                    if to_bool(to_u1(v_total >= to_unsigned(3, 8))) then
                                        send_args(7 downto 0) <= std_logic_vector(v_total);
                                        send_valid(0) <= '1';
                                    end if;
                                    state <= ST_COUNTING;
                                when others =>
                                    null; -- unhandled in this state: dropped
                            end case;
                    end case;
                    r_total <= v_total;
                end if;
            end if;
        end if;
    end process step;
end architecture rtl;

