-- Generated hardware half. Do not edit.
-- model hash f6fefb4719922cba

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package race_iface is
    -- Boundary signal ids and payload widths
    constant SIG_REC_PUT : natural := 0;
    constant SIG_REC_PUT_BITS : natural := 8;
    -- Class-local event ids of the hardware classes
    constant EV_BETA_KICK : natural := 0;
    function to_u1(b : boolean) return unsigned;
    function to_bool(u : unsigned) return boolean;
end package race_iface;

package body race_iface is
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
end package body race_iface;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.race_iface.all;

entity Beta is
    port (
        clk : in std_logic;
        rst : in std_logic;
        ev_valid : in std_logic;
        ev_id : in natural range 0 to 0;
        ev_args : in std_logic_vector(0 downto 0);
        -- one send slot per send statement, in document order
        -- send_valid(0): rec.Put (SIG_REC_PUT)
        send_valid : out std_logic_vector(0 downto 0);
        send_args : out std_logic_vector(7 downto 0)
    );
end entity Beta;

architecture rtl of Beta is
    type state_t is (ST_RUN);
    signal state : state_t;
begin
    step : process (clk)
    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ST_RUN;
                send_valid <= (others => '0');
                send_args <= (others => '0');
            else
                send_valid <= (others => '0');
                if ev_valid = '1' then
                    case state is
                        when ST_RUN =>
                            case ev_id is
                                when EV_BETA_KICK =>
                                    send_args(7 downto 0) <= std_logic_vector(to_unsigned(2, 8));
                                    send_valid(0) <= '1';
                                    state <= ST_RUN;
                                when others =>
                                    null; -- unhandled in this state: dropped
                            end case;
                    end case;
                end if;
            end if;
        end if;
    end process step;
end architecture rtl;

