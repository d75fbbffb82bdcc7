-- Generated hardware half. Do not edit.
-- model hash 95a1fd8728552a1b

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package widths_iface is
    -- Boundary signal ids and payload widths
    constant SIG_SINK_STASH : natural := 0;
    constant SIG_SINK_STASH_BITS : natural := 33;
    -- Instance ids (model population, document order)
    constant INST_GADGET : natural := 0;
    constant INST_SINK : natural := 1;
    -- Class-local event ids
    constant EV_GADGET_LOAD : natural := 0;
    constant EV_GADGET_MIX : natural := 1;
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
        snd_valid : out std_logic;
        snd_sig : out natural;
        snd_payload : out std_logic_vector(32 downto 0);
        loc_valid : out std_logic;
        loc_inst : out natural;
        loc_ev : out natural;
        loc_args : out std_logic_vector(56 downto 0)
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
        variable v_snd : std_logic_vector(32 downto 0);
        variable v_loc : std_logic_vector(56 downto 0);
    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ST_OPEN;
                r_got <= to_unsigned(0, 32);
                r_flagged <= to_unsigned(0, 1);
                snd_valid <= '0';
                loc_valid <= '0';
            else
                snd_valid <= '0';
                loc_valid <= '0';
                if ev_valid = '1' then
                    v_got := r_got;
                    v_flagged := r_flagged;
                    v_snd := (others => '0');
                    v_loc := (others => '0');
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

