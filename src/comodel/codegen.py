"""Code generation: one interface manifest, two target texts.

The manifest is the single description of every cross-boundary signal:
a dense 0-based id (assigned in ascending (receiver class, signal name)
order), a direction, and a packed payload layout (parameters in
declaration order, bit offsets ascending from 0, bit 0 least
significant). Both emitted targets derive their boundary constants from
it, so the two halves agree by construction; `check_interfaces`
re-extracts the constants from the emitted texts and verifies them
against the manifest, which also catches externally tampered files.

One emitter skeleton serves both targets: it validates the model, lays
out payloads and walks each transition's actions, and the `isHardware`
mark picks the mapping rule that prints a class. Each rule spells every
identifier it prints in its own naming code and declares it, as it prints
it, in one scope of its target (see `_Scope`): so a model is rejected
exactly when a printed name collides (`E_NAME_CLASH`) or is one the
target reserves or cannot spell (`E_TARGET_NAME`). The C rule
gives each software class a state enum, an event enum (in the header,
so a platform can inject), an instance struct with exact-width unsigned
attributes and a dispatch function mirroring the transition table. All
software instances share one event FIFO of `{inst, ev, args}` slots,
`QUEUE_CAP` = 64 per software instance, filled only by `<model>_inject`:
local sends, bus deliveries (`bus_deliver`) and the platform all enqueue
through it, and `<model>_step` dispatches the oldest slot. So an all-SW
half serves events in the interpreter's global-fifo order. Outbound
boundary sends go through the platform's `bus_send`.
The VHDL rule gives each hardware class an entity with clock/reset and
event input ports and a synchronous process implementing the same
transition table over unsigned registers. All arithmetic wraps at the
declared widths in both targets, matching the interpreter bit for bit.

Emission is pure text generation: identical inputs give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from . import frontend, ir, partition as part

C_TYPES = {"bool": "uint8_t", "u8": "uint8_t", "u16": "uint16_t", "u32": "uint32_t"}


class CodegenError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


# ---------------------------------------------------------------------------
# Interface manifest
# ---------------------------------------------------------------------------


@dataclass
class PayloadField:
    name: str
    width_bits: int
    bit_offset: int


@dataclass
class ManifestSignal:
    id: int
    receiver_class: str
    signal: str
    direction: str
    payload: list[PayloadField] = field(default_factory=list)
    payload_total_bits: int = 0


@dataclass
class InterfaceManifest:
    model_hash: str  # 64-bit content hash, 16 hex digits
    signals: list[ManifestSignal] = field(default_factory=list)


def mangle(receiver_class: str, signal: str) -> str:
    return f"SIG_{receiver_class.upper()}_{signal.upper()}"


def _constants(manifest: InterfaceManifest) -> list[tuple[str, int]]:
    """The boundary constants, in manifest order: each signal's id, then
    its payload width (`<name>_BITS`). Both targets print exactly these."""
    constants = []
    for s in manifest.signals:
        base = mangle(s.receiver_class, s.signal)
        constants.append((base, s.id))
        constants.append((base + "_BITS", s.payload_total_bits))
    return constants


def model_content_hash(model: ir.Model, partition: part.Partition) -> str:
    """64-bit hash over the canonical model text plus the partition's
    class-to-domain map (the semantic content of the marks)."""
    text = frontend.print_model(model)
    text += "".join(
        f"{name}={partition.domain[name]}\n" for name in sorted(partition.domain)
    )
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def build_manifest(model: ir.Model, partition: part.Partition) -> InterfaceManifest:
    """Derive the interface manifest for a (model, partition) pair."""
    layouts = _payload_layouts(ir.ensure_valid(model))
    signals = []
    for idx, bs in enumerate(part.boundary(model, partition)):
        payload = layouts[(bs.receiver_class, bs.signal)]
        signals.append(
            ManifestSignal(
                id=idx,
                receiver_class=bs.receiver_class,
                signal=bs.signal,
                direction=bs.direction,
                payload=payload,
                payload_total_bits=_payload_bits(payload),
            )
        )
    return InterfaceManifest(model_hash=model_content_hash(model, partition), signals=signals)


def manifest_to_json(manifest: InterfaceManifest) -> str:
    """Canonical JSON: sorted keys, two-space indent, byte-stable. Each
    manifest dataclass is written as its own fields (`vars`)."""
    return json.dumps(manifest, default=vars, indent=2, sort_keys=True) + "\n"


def _manifest_field(obj: object, key: str, ty: type):
    if not isinstance(obj, dict):
        raise CodegenError("E_MANIFEST", f"expected an object, found {type(obj).__name__}")
    if key not in obj:
        raise CodegenError("E_MANIFEST", f"missing key {key!r}")
    value = obj[key]
    if type(value) is not ty:  # exact, so a bool is not an int
        raise CodegenError(
            "E_MANIFEST", f"{key!r} must be {ty.__name__}, found {type(value).__name__}"
        )
    return value


def manifest_from_json(text: str) -> InterfaceManifest:
    """Inverse of `manifest_to_json`; a malformed manifest raises E_MANIFEST."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CodegenError("E_MANIFEST", f"malformed JSON: {e}") from e
    return InterfaceManifest(
        model_hash=_manifest_field(obj, "model_hash", str),
        signals=[
            ManifestSignal(
                id=_manifest_field(s, "id", int),
                receiver_class=_manifest_field(s, "receiver_class", str),
                signal=_manifest_field(s, "signal", str),
                direction=_manifest_field(s, "direction", str),
                payload=[
                    PayloadField(
                        _manifest_field(f, "name", str),
                        _manifest_field(f, "width_bits", int),
                        _manifest_field(f, "bit_offset", int),
                    )
                    for f in _manifest_field(s, "payload", list)
                ],
                payload_total_bits=_manifest_field(s, "payload_total_bits", int),
            )
            for s in _manifest_field(obj, "signals", list)
        ],
    )


# ---------------------------------------------------------------------------
# Target namespaces
# ---------------------------------------------------------------------------


class _Scope:
    """One namespace of a target text, living for one emitter call.
    `declare` checks an identifier the text declares, records it and
    returns it. It raises E_TARGET_NAME for a name in `reserved` or one
    that `spelling` does not match, and E_NAME_CLASH for one declared
    before: by this scope, or in `taken`, the names declared elsewhere
    that reach into it (what the fixed text and its libraries declare;
    for a C struct, the macros). A `fold` scope ignores case, as VHDL does."""

    def __init__(self, where, spelling, reserved, taken=frozenset(), fold=False):
        self.where = where
        self.spelling = spelling
        self.reserved = reserved
        self.taken = taken
        self.fold = fold
        self.names = set()

    def declare(self, name: str) -> str:
        key = name.lower() if self.fold else name
        if key in self.reserved or not self.spelling.fullmatch(name):
            raise CodegenError(
                "E_TARGET_NAME", f"{self.where}: {name} is reserved or not an identifier"
            )
        if key in self.names or key in self.taken:
            case = " ignoring case" if self.fold else ""
            raise CodegenError("E_NAME_CLASH", f"{self.where}: {name} is already declared{case}")
        self.names.add(key)
        return name


# C identifiers; one that starts `__` or `_` and a capital is the implementation's
_C_NAME = re.compile(r"(?!_[A-Z_])[A-Za-z_][A-Za-z0-9_]*")
# a VHDL basic identifier: a letter first, and each `_` between two letters or digits
_VHDL_NAME = re.compile(r"[A-Za-z](?:_?[A-Za-z0-9])*")

# --- seeded name tables: begin ---
_C_KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern float for goto
    if inline int long register restrict return short signed sizeof static struct switch
    typedef union unsigned void volatile while _Bool _Complex _Imaginary
""".split())
_STDINT_STEMS = [
    f"{u}int{k}{n}" for u in ("", "u") for k in ("", "_least", "_fast") for n in (8, 16, 32, 64)
]
_STDINT_STEMS += ["intptr", "uintptr", "intmax", "uintmax"]
# the macros <stdint.h> and the runtime text define
_C_MACROS = frozenset(
    [f"{s.upper()}_MAX" for s in _STDINT_STEMS]
    + [f"{s.upper()}_MIN" for s in _STDINT_STEMS if s[0] == "i"]
    + [f"{s.upper()}_C" for s in _STDINT_STEMS if "_" not in s and "ptr" not in s]
    + """PTRDIFF_MIN PTRDIFF_MAX SIG_ATOMIC_MIN SIG_ATOMIC_MAX SIZE_MAX WCHAR_MIN WCHAR_MAX
         WINT_MIN WINT_MAX QUEUE_CAP MAX_ARGS SW_INSTANCE_COUNT""".split()
)
# every name <stdint.h> and the runtime text declare: the macros, the typedefs,
# functions and statics, and the parameters and locals
_C_DECLARED = _C_MACROS | frozenset([f"{s}_t" for s in _STDINT_STEMS] + """
    event_slot_t queue queue_head queue_count put_bits get_bits sw_dispatch
    inst_id sig_id ev args nargs nbits payload sargs self slot k bit buf offset width value
""".split())
# every instance struct's own member
_C_MEMBER_RESERVED = _C_KEYWORDS | {"state"}
_VHDL_RESERVED = frozenset("""
    abs access after alias all and architecture array assert attribute begin block body
    buffer bus case component configuration constant disconnect downto else elsif end entity
    exit file for function generate generic group guarded if impure in inertial inout is
    label library linkage literal loop map mod nand new next nor not null of on open or
    others out package port postponed procedure process pure range record register reject
    rem report return rol ror select severity signal shared sla sll sra srl subtype then to
    transport type unaffected units until use variable wait when while with xnor xor
""".split())
# the ieee, std and work names the fixed text uses, and the package's own functions
_VHDL_LIBRARY = frozenset("""
    ieee std work std_logic_1164 numeric_std std_logic std_logic_vector unsigned natural
    boolean rising_edge to_unsigned resize to_u1 to_bool
""".split())
# what every entity declares for itself: its ports, state, variables and labels
_VHDL_ENTITY_RESERVED = _VHDL_RESERVED | frozenset("""
    clk rst ev_valid ev_id ev_args snd_valid snd_sig snd_payload loc_valid loc_inst loc_ev
    loc_args state_t state v_snd v_loc step rtl
""".split())
# --- seeded name tables: end ---


# ---------------------------------------------------------------------------
# Shared emission helpers
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def w(self, text: str = "") -> None:
        self.lines.append(("    " * self.indent + text) if text else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _payload_layouts(checked: ir.Checked) -> dict[tuple[str, str], list[PayloadField]]:
    """The packed payload of every (class, signal): its parameters in
    declaration order, bit offsets ascending from 0."""
    layouts = {}
    for key, sig in checked.signals.items():
        layout = []
        offset = 0
        for p in sig.params:
            layout.append(PayloadField(p.name, ir.WIDTHS[p.type], offset))
            offset += ir.WIDTHS[p.type]
        layouts[key] = layout
    return layouts


def _payload_bits(layout: list[PayloadField]) -> int:
    return sum(f.width_bits for f in layout)


# A transition's parameters: name -> (position in the args, packed field).
_Params = dict[str, tuple[int, PayloadField]]


class _Emitter:
    """The emitter skeleton (see the module docstring). A target gives its
    `DOMAIN`, its `assign`, `if_`, `ELSE` and `END_IF` syntax, its `expr`
    printer, and its `send(w, s, receiver class, params)`."""

    def __init__(
        self,
        model: ir.Model,
        partition: part.Partition,
        manifest: InterfaceManifest,
        name: str,
    ):
        self.checked = ir.ensure_valid(model)
        self.constants = _constants(manifest)
        self.layouts = _payload_layouts(self.checked)
        self.partition = partition
        self.manifest = manifest
        self.name = name
        mine = {cls: d == self.DOMAIN for cls, d in partition.domain.items()}
        self.classes = [c for c in self.checked.classes.values() if mine[c.name]]
        self.instances = [(n, c) for n, c in self.checked.instance_class.items() if mine[c.name]]

    def _params(self, cls: ir.ClassDef, tr: ir.TransitionDef) -> _Params:
        return {f.name: (i, f) for i, f in enumerate(self.layouts[(cls.name, tr.signal)])}

    def _stmts(self, w: _Writer, stmts: list[ir.Stmt], params: _Params) -> None:
        for s in stmts:
            if isinstance(s, ir.Assign):
                w.w(self.assign(s.attr, self.expr(s.value, params)))
            elif isinstance(s, ir.Send):
                self.send(w, s, self.checked.instance_class[s.instance].name, params)
            elif isinstance(s, ir.If):
                w.w(self.if_(self.expr(s.cond, params)))
                w.indent += 1
                self._stmts(w, s.then, params)
                w.indent -= 1
                if s.orelse:
                    w.w(self.ELSE)
                    w.indent += 1
                    self._stmts(w, s.orelse, params)
                    w.indent -= 1
                w.w(self.END_IF)


# ---------------------------------------------------------------------------
# C emitter
# ---------------------------------------------------------------------------


# -- naming: the one spelling of each upper-cased or prefixed C identifier --


def _c_guard(model: str) -> str:
    return f"{model.upper()}_SW_H"


def _c_state(cls: str, state: str) -> str:
    return f"{cls.upper()}_ST_{state.upper()}"


def _c_event(cls: str, signal: str) -> str:
    return f"{cls.upper()}_EV_{signal.upper()}"


def _c_swi(inst: str) -> str:
    return f"SWI_{inst.upper()}"


def _c_storage(inst: str) -> str:
    return f"inst_{inst}"


def _c_expr(e: ir.Expr, params: _Params) -> str:
    if isinstance(e, (ir.IntLit, ir.BoolLit)):
        return f"{int(e.value)}u"
    if isinstance(e, ir.AttrRef):
        return f"self->{e.name}"
    if isinstance(e, ir.ParamRef):
        return f"({C_TYPES[e.ty]})args[{params[e.name][0]}]"
    if isinstance(e, ir.Unary):
        inner = _c_expr(e.operand, params)
        if e.op == "!":
            return f"(uint8_t)(!{inner})"
        return f"({C_TYPES[e.ty]})(0u - {inner})"
    if isinstance(e, ir.Binary):
        l = _c_expr(e.left, params)
        r = _c_expr(e.right, params)
        if e.op == "*" and ir.WIDTHS[e.ty] < 32:
            # narrow operands promote to int, whose product can overflow
            return f"({C_TYPES[e.ty]})((uint32_t){l} * {r})"
        if ir.BINARY_OPS[e.op].kind == ir.ARITHMETIC:
            return f"({C_TYPES[e.ty]})({l} {e.op} {r})"
        return f"(uint8_t)({l} {e.op} {r})"
    raise TypeError(f"unexpected expression node {e!r}")


class _CEmitter(_Emitter):
    DOMAIN = part.SW
    ELSE = "} else {"
    END_IF = "}"
    expr = staticmethod(_c_expr)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.macros = set(_C_MACROS)
        self.file = _Scope("C file scope", _C_NAME, _C_KEYWORDS, _C_DECLARED)

    def assign(self, attr: str, value: str) -> str:
        return f"self->{attr} = {value};"

    def if_(self, cond: str) -> str:
        return f"if ({cond}) {{"

    def macro(self, name: str) -> str:
        """Declare a macro, which also reaches into every struct."""
        self.macros.add(self.file.declare(name))
        return name

    def header(self) -> str:
        """Declares the macros, so it runs before `source`, whose structs
        they reach into."""
        w = _Writer()
        guard = self.macro(_c_guard(self.name))
        w.w("/* Generated software interface header. Do not edit. */")
        w.w(f"#ifndef {guard}")
        w.w(f"#define {guard}")
        w.w()
        w.w("#include <stdint.h>")
        w.w()
        w.w(f"/* model hash {self.manifest.model_hash} */")
        w.w()
        w.w("/* Boundary signal ids and payload widths */")
        for name, value in self.constants:
            w.w(f"#define {self.macro(name)} {value}")
        w.w()
        w.w("/* Software instance ids (dispatch and bus addressing) */")
        for k, (inst, _) in enumerate(self.instances):
            w.w(f"#define {self.macro(_c_swi(inst))} {k}u")
        w.w(f"#define SW_INSTANCE_COUNT {len(self.instances)}u")
        w.w()
        events = [cls for cls in self.classes if cls.signals]
        if events:
            w.w(f"/* Event ids of each software class: the `ev` of {self.name}_inject */")
        for cls in events:
            self._enum(w, f"{cls.name}_event_t", [_c_event(cls.name, s.name) for s in cls.signals])
        w.w("/* Provided by the platform: outbound boundary transport. */")
        w.w(
            f"void {self.file.declare(f'{self.name}_bus_send')}(uint32_t sig_id,"
            " const uint8_t *payload, uint32_t nbits);"
        )
        w.w()
        w.w(f"void {self.file.declare(f'{self.name}_reset')}(void);")
        w.w(f"int {self.file.declare(f'{self.name}_step')}(void);")
        w.w(
            f"void {self.file.declare(f'{self.name}_inject')}(uint32_t inst_id, uint32_t ev,"
            " const uint32_t *args, uint32_t nargs);"
        )
        w.w(
            f"void {self.file.declare(f'{self.name}_bus_deliver')}(uint32_t inst_id,"
            " uint32_t sig_id, const uint8_t *payload);"
        )
        w.w()
        w.w(f"#endif /* {guard} */")
        return w.text()

    def source(self) -> str:
        w = _Writer()
        w.w("/* Generated software half. Do not edit. */")
        w.w("#include <stdint.h>")
        w.w(f'#include "{self.name}_sw.h"')
        w.w()
        w.w(f"#define QUEUE_CAP {64 * max(1, len(self.instances))}u /* 64 per SW instance */")
        w.w(f"#define MAX_ARGS {max([1] + [len(lay) for lay in self.layouts.values()])}u")
        w.w()
        self._queue_machinery(w)
        for cls in self.classes:
            self._class_decl(w, cls)
        self._instance_storage(w)
        if any(s.direction == part.SW_TO_HW and s.payload for s in self.manifest.signals):
            self._put_bits(w)
        if any(s.direction == part.HW_TO_SW and s.payload for s in self.manifest.signals):
            self._get_bits(w)
        for cls in self.classes:
            self._dispatch_fn(w, cls)
        self._entry_points(w)
        return w.text()

    def _queue_machinery(self, w: _Writer) -> None:
        w.w("typedef struct {")
        w.w("    uint32_t inst;")
        w.w("    uint32_t ev;")
        w.w("    uint32_t args[MAX_ARGS];")
        w.w("} event_slot_t;")
        w.w()
        w.w("/* one FIFO for every software instance, in enqueue order */")
        w.w("static event_slot_t queue[QUEUE_CAP];")
        w.w("static uint32_t queue_head;")
        w.w("static uint32_t queue_count;")
        w.w()
        w.w(f"void {self.name}_inject(uint32_t inst_id, uint32_t ev,")
        w.w("        const uint32_t *args, uint32_t nargs) {")
        w.w("    event_slot_t *slot;")
        w.w("    uint32_t k;")
        w.w("    if (queue_count == QUEUE_CAP) {")
        w.w("        return; /* overflow: dropped */")
        w.w("    }")
        w.w("    slot = &queue[(queue_head + queue_count) % QUEUE_CAP];")
        w.w("    slot->inst = inst_id;")
        w.w("    slot->ev = ev;")
        w.w("    for (k = 0; k < MAX_ARGS; k++) {")
        w.w("        slot->args[k] = (args != 0 && k < nargs) ? args[k] : 0u;")
        w.w("    }")
        w.w("    queue_count++;")
        w.w("}")
        w.w()

    def _class_decl(self, w: _Writer, cls: ir.ClassDef) -> None:
        w.w(f"/* ---- class {cls.name} ---- */")
        w.w()
        states = [_c_state(cls.name, st.name) for st in cls.machine.states]
        self._enum(w, f"{cls.name}_state_t", states)
        members = _Scope(f"C struct {cls.name}_t", _C_NAME, _C_MEMBER_RESERVED, self.macros)
        w.w("typedef struct {")
        w.w(f"    {cls.name}_state_t state;")
        for a in cls.attributes:
            w.w(f"    {C_TYPES[a.type]} {members.declare(a.name)};")
        w.w(f"}} {self.file.declare(f'{cls.name}_t')};")
        w.w()

    def _enum(self, w: _Writer, type_name: str, names: list[str]) -> None:
        """A C enum of `names`, numbered from 0."""
        w.w("typedef enum {")
        for i, name in enumerate(names):
            comma = "," if i + 1 < len(names) else ""
            w.w(f"    {self.file.declare(name)} = {i}{comma}")
        w.w(f"}} {self.file.declare(type_name)};")
        w.w()

    def _instance_storage(self, w: _Writer) -> None:
        for inst, cls in self.instances:
            w.w(f"static {cls.name}_t {self.file.declare(_c_storage(inst))};")
        if self.instances:
            w.w()

    def _put_bits(self, w: _Writer) -> None:
        w.w("static void put_bits(uint8_t *buf, uint32_t offset, uint32_t width,")
        w.w("                     uint32_t value) {")
        w.w("    uint32_t k;")
        w.w("    for (k = 0; k < width; k++) {")
        w.w("        uint32_t bit = offset + k;")
        w.w("        if ((value >> k) & 1u) {")
        w.w("            buf[bit / 8u] |= (uint8_t)(1u << (bit % 8u));")
        w.w("        }")
        w.w("    }")
        w.w("}")
        w.w()

    def _get_bits(self, w: _Writer) -> None:
        w.w("static uint32_t get_bits(const uint8_t *buf, uint32_t offset,")
        w.w("                         uint32_t width) {")
        w.w("    uint32_t value = 0;")
        w.w("    uint32_t k;")
        w.w("    for (k = 0; k < width; k++) {")
        w.w("        uint32_t bit = offset + k;")
        w.w("        if ((buf[bit / 8u] >> (bit % 8u)) & 1u) {")
        w.w("            value |= (1u << k);")
        w.w("        }")
        w.w("    }")
        w.w("    return value;")
        w.w("}")
        w.w()

    def send(self, w: _Writer, s: ir.Send, recv: str, params: _Params) -> None:
        if self.partition.domain[recv] == part.SW:
            ev = _c_event(recv, s.signal)
            if s.args:
                w.w("{")
                w.indent += 1
                w.w("uint32_t sargs[MAX_ARGS];")
                for i, a in enumerate(s.args):
                    w.w(f"sargs[{i}] = (uint32_t){_c_expr(a, params)};")
                w.w(f"{self.name}_inject({_c_swi(s.instance)}, {ev}, sargs, {len(s.args)}u);")
                w.indent -= 1
                w.w("}")
            else:
                w.w(f"{self.name}_inject({_c_swi(s.instance)}, {ev}, 0, 0u);")
        else:
            macro = mangle(recv, s.signal)
            layout = self.layouts[(recv, s.signal)]
            w.w(f"{{ /* send {s.instance}.{s.signal}: cross-boundary */")
            w.indent += 1
            w.w(f"uint8_t payload[{max(1, (_payload_bits(layout) + 7) // 8)}] = {{0}};")
            for f, a in zip(layout, s.args):
                w.w(
                    f"put_bits(payload, {f.bit_offset}u, {f.width_bits}u,"
                    f" (uint32_t){_c_expr(a, params)});"
                )
            w.w(f"{self.name}_bus_send({macro}, payload, {macro}_BITS);")
            w.indent -= 1
            w.w("}")

    def _dispatch_fn(self, w: _Writer, cls: ir.ClassDef) -> None:
        fn = self.file.declare(f"{cls.name}_dispatch")
        w.w(f"static void {fn}({cls.name}_t *self, uint32_t ev,")
        w.w("        const uint32_t *args) {")
        w.indent += 1
        w.w("(void)args;")
        if not any(st.transitions for st in cls.machine.states):
            w.w("(void)self;")
            w.w("(void)ev;")
        else:
            w.w("switch (self->state) {")
            for st in cls.machine.states:
                w.w(f"case {_c_state(cls.name, st.name)}:")
                w.indent += 1
                if st.transitions:
                    w.w("switch (ev) {")
                    for tr in st.transitions:
                        w.w(f"case {_c_event(cls.name, tr.signal)}: {{")
                        w.indent += 1
                        self._stmts(w, tr.actions, self._params(cls, tr))
                        w.w(f"self->state = {_c_state(cls.name, tr.target)};")
                        w.w("break;")
                        w.indent -= 1
                        w.w("}")
                    w.w("default:")
                    w.w("    break; /* unhandled in this state: dropped */")
                    w.w("}")
                w.w("break;")
                w.indent -= 1
            w.w("}")
        w.indent -= 1
        w.w("}")
        w.w()

    def _entry_points(self, w: _Writer) -> None:
        inbound = [s for s in self.manifest.signals if s.direction == part.HW_TO_SW]
        w.w(f"void {self.name}_reset(void) {{")
        w.indent += 1
        for inst, cls in self.instances:
            w.w(f"{_c_storage(inst)}.state = {_c_state(cls.name, cls.machine.initial)};")
            for a in cls.attributes:
                w.w(f"{_c_storage(inst)}.{a.name} = {int(a.default)}u;")
        w.w("queue_head = 0u;")
        w.w("queue_count = 0u;")
        w.indent -= 1
        w.w("}")
        w.w()

        w.w("static void sw_dispatch(uint32_t inst_id, uint32_t ev,")
        w.w("                        const uint32_t *args) {")
        w.indent += 1
        if self.instances:
            w.w("switch (inst_id) {")
            for inst, cls in self.instances:
                w.w(f"case {_c_swi(inst)}:")
                w.w(f"    {cls.name}_dispatch(&{_c_storage(inst)}, ev, args);")
                w.w("    break;")
            w.w("default:")
            w.w("    break;")
            w.w("}")
        else:
            w.w("(void)inst_id;")
            w.w("(void)ev;")
            w.w("(void)args;")
        w.indent -= 1
        w.w("}")
        w.w()

        w.w(f"int {self.name}_step(void) {{")
        w.w("    event_slot_t slot;")
        w.w("    if (queue_count == 0u) {")
        w.w("        return 0;")
        w.w("    }")
        w.w("    slot = queue[queue_head];")
        w.w("    queue_head = (queue_head + 1u) % QUEUE_CAP;")
        w.w("    queue_count--;")
        w.w("    sw_dispatch(slot.inst, slot.ev, slot.args);")
        w.w("    return 1;")
        w.w("}")
        w.w()

        w.w(f"void {self.name}_bus_deliver(uint32_t inst_id, uint32_t sig_id,")
        w.w("        const uint8_t *payload) {")
        w.indent += 1
        if not inbound:
            w.w("(void)inst_id;")
            w.w("(void)sig_id;")
            w.w("(void)payload;")
        else:
            w.w("uint32_t args[MAX_ARGS];")
            w.w("uint32_t k;")
            w.w("(void)payload;")
            w.w("for (k = 0; k < MAX_ARGS; k++) {")
            w.w("    args[k] = 0;")
            w.w("}")
            w.w("switch (sig_id) {")
            for s in inbound:
                w.w(f"case {mangle(s.receiver_class, s.signal)}: {{")
                w.indent += 1
                for i, f in enumerate(s.payload):
                    w.w(f"args[{i}] = get_bits(payload, {f.bit_offset}u, {f.width_bits}u);")
                ev = _c_event(s.receiver_class, s.signal)
                w.w(f"{self.name}_inject(inst_id, {ev}, args, {len(s.payload)}u);")
                w.w("break;")
                w.indent -= 1
                w.w("}")
            w.w("default:")
            w.w("    break;")
            w.w("}")
        w.indent -= 1
        w.w("}")


def emit_c(
    model: ir.Model,
    partition: part.Partition,
    manifest: InterfaceManifest,
    name: str = "model",
) -> tuple[str, str]:
    """Emit the software half; returns (c_source, c_header)."""
    emitter = _CEmitter(model, partition, manifest, name)
    header = emitter.header()
    return emitter.source(), header


# ---------------------------------------------------------------------------
# VHDL emitter
# ---------------------------------------------------------------------------


# -- naming: the one spelling of each upper-cased or prefixed VHDL identifier --


def _v_var(attr: str) -> str:
    return f"v_{attr}"


def _v_reg(attr: str) -> str:
    return f"r_{attr}"


def _v_state(state: str) -> str:
    return f"ST_{state.upper()}"


def _v_event(cls: str, signal: str) -> str:
    return f"EV_{cls.upper()}_{signal.upper()}"


def _v_inst(inst: str) -> str:
    return f"INST_{inst.upper()}"


# the binary operators that VHDL spells otherwise
_VHDL_OPS = {"&&": "and", "||": "or", "==": "=", "!=": "/="}


def _v_expr(e: ir.Expr, params: _Params) -> str:
    if isinstance(e, (ir.IntLit, ir.BoolLit)):
        if e.value > 2**31 - 1:
            # beyond the guaranteed VHDL integer range: hex bit string
            return f'unsigned\'(x"{e.value:08X}")'
        return f"to_unsigned({int(e.value)}, {ir.WIDTHS[e.ty]})"
    if isinstance(e, ir.AttrRef):
        return _v_var(e.name)
    if isinstance(e, ir.ParamRef):
        f = params[e.name][1]
        return f"unsigned(ev_args({f.bit_offset + f.width_bits - 1} downto {f.bit_offset}))"
    if isinstance(e, ir.Unary):
        inner = _v_expr(e.operand, params)
        if e.op == "!":
            return f"(not {inner})"
        return f"(to_unsigned(0, {ir.WIDTHS[e.ty]}) - {inner})"
    if isinstance(e, ir.Binary):
        l = _v_expr(e.left, params)
        r = _v_expr(e.right, params)
        if e.op == "*":
            return f"resize({l} * {r}, {ir.WIDTHS[e.ty]})"
        infix = f"{l} {_VHDL_OPS.get(e.op, e.op)} {r}"
        return f"to_u1({infix})" if ir.BINARY_OPS[e.op].kind == ir.COMPARISON else f"({infix})"
    raise TypeError(f"unexpected expression node {e!r}")


class _VhdlEmitter(_Emitter):
    DOMAIN = part.HW
    ELSE = "else"
    END_IF = "end if;"
    expr = staticmethod(_v_expr)

    def assign(self, attr: str, value: str) -> str:
        return f"{_v_var(attr)} := {value};"

    def if_(self, cond: str) -> str:
        return f"if to_bool({cond}) then"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.pkg = _Scope("VHDL package", _VHDL_NAME, _VHDL_RESERVED, _VHDL_LIBRARY, fold=True)
        self.iface = self.pkg.declare(f"{self.name}_iface")
        self.snd_bits = max(
            [1] + [s.payload_total_bits for s in self.manifest.signals]
        )
        self.loc_bits = max([1] + [_payload_bits(layout) for layout in self.layouts.values()])

    def emit(self) -> str:
        w = _Writer()
        w.w("-- Generated hardware half. Do not edit.")
        w.w(f"-- model hash {self.manifest.model_hash}")
        w.w()
        self._package(w)
        for cls in self.classes:
            self._entity(w, cls)
        return w.text()

    def _package(self, w: _Writer) -> None:
        w.w("library ieee;")
        w.w("use ieee.std_logic_1164.all;")
        w.w("use ieee.numeric_std.all;")
        w.w()
        w.w(f"package {self.iface} is")
        w.indent += 1
        w.w("-- Boundary signal ids and payload widths")
        for name, value in self.constants:
            w.w(f"constant {self.pkg.declare(name)} : natural := {value};")
        w.w("-- Instance ids (model population, document order)")
        for k, inst in enumerate(self.checked.instance_class):
            w.w(f"constant {self.pkg.declare(_v_inst(inst))} : natural := {k};")
        w.w("-- Class-local event ids")
        for cls in self.checked.classes.values():
            for i, s in enumerate(cls.signals):
                w.w(f"constant {self.pkg.declare(_v_event(cls.name, s.name))} : natural := {i};")
        w.w("function to_u1(b : boolean) return unsigned;")
        w.w("function to_bool(u : unsigned) return boolean;")
        w.indent -= 1
        w.w(f"end package {self.iface};")
        w.w()
        w.w(f"package body {self.iface} is")
        w.indent += 1
        w.w("function to_u1(b : boolean) return unsigned is")
        w.w("begin")
        w.w("    if b then")
        w.w('        return to_unsigned(1, 1);')
        w.w("    else")
        w.w('        return to_unsigned(0, 1);')
        w.w("    end if;")
        w.w("end function;")
        w.w()
        w.w("function to_bool(u : unsigned) return boolean is")
        w.w("begin")
        w.w("    return u /= to_unsigned(0, u'length);")
        w.w("end function;")
        w.indent -= 1
        w.w(f"end package body {self.iface};")
        w.w()

    def _entity(self, w: _Writer, cls: ir.ClassDef) -> None:
        ev_bits = max([1] + [_payload_bits(self.layouts[(cls.name, s.name)]) for s in cls.signals])
        n_ev = max(1, len(cls.signals))
        w.w("library ieee;")
        w.w("use ieee.std_logic_1164.all;")
        w.w("use ieee.numeric_std.all;")
        w.w(f"use work.{self.iface}.all;")
        w.w()
        w.w(f"entity {self.pkg.declare(cls.name)} is")
        w.indent += 1
        w.w("port (")
        w.indent += 1
        w.w("clk : in std_logic;")
        w.w("rst : in std_logic;")
        w.w("ev_valid : in std_logic;")
        w.w(f"ev_id : in natural range 0 to {n_ev - 1};")
        w.w(f"ev_args : in std_logic_vector({ev_bits - 1} downto 0);")
        w.w("snd_valid : out std_logic;")
        w.w("snd_sig : out natural;")
        w.w(f"snd_payload : out std_logic_vector({self.snd_bits - 1} downto 0);")
        w.w("loc_valid : out std_logic;")
        w.w("loc_inst : out natural;")
        w.w("loc_ev : out natural;")
        w.w(f"loc_args : out std_logic_vector({self.loc_bits - 1} downto 0)")
        w.indent -= 1
        w.w(");")
        w.indent -= 1
        w.w(f"end entity {cls.name};")
        w.w()
        w.w(f"architecture rtl of {cls.name} is")
        w.indent += 1
        ent = _Scope(f"VHDL entity {cls.name}", _VHDL_NAME, _VHDL_ENTITY_RESERVED, fold=True)
        states = ", ".join(ent.declare(_v_state(st.name)) for st in cls.machine.states)
        w.w(f"type state_t is ({states});")
        w.w("signal state : state_t;")
        for a in cls.attributes:
            w.w(f"signal {ent.declare(_v_reg(a.name))} : unsigned({ir.WIDTHS[a.type] - 1} downto 0);")
        w.indent -= 1
        w.w("begin")
        w.indent += 1
        w.w("step : process (clk)")
        w.indent += 1
        for a in cls.attributes:
            w.w(f"variable {ent.declare(_v_var(a.name))} : unsigned({ir.WIDTHS[a.type] - 1} downto 0);")
        w.w(f"variable v_snd : std_logic_vector({self.snd_bits - 1} downto 0);")
        w.w(f"variable v_loc : std_logic_vector({self.loc_bits - 1} downto 0);")
        w.indent -= 1
        w.w("begin")
        w.indent += 1
        w.w("if rising_edge(clk) then")
        w.indent += 1
        w.w("if rst = '1' then")
        w.indent += 1
        w.w(f"state <= {_v_state(cls.machine.initial)};")
        for a in cls.attributes:
            w.w(f"{_v_reg(a.name)} <= to_unsigned({int(a.default)}, {ir.WIDTHS[a.type]});")
        w.w("snd_valid <= '0';")
        w.w("loc_valid <= '0';")
        w.indent -= 1
        w.w("else")
        w.indent += 1
        w.w("snd_valid <= '0';")
        w.w("loc_valid <= '0';")
        w.w("if ev_valid = '1' then")
        w.indent += 1
        for a in cls.attributes:
            w.w(f"{_v_var(a.name)} := {_v_reg(a.name)};")
        w.w("v_snd := (others => '0');")
        w.w("v_loc := (others => '0');")
        self._machine_case(w, cls)
        for a in cls.attributes:
            w.w(f"{_v_reg(a.name)} <= {_v_var(a.name)};")
        w.indent -= 1
        w.w("end if;")
        w.indent -= 1
        w.w("end if;")
        w.indent -= 1
        w.w("end if;")
        w.indent -= 1
        w.w("end process step;")
        w.indent -= 1
        w.w(f"end architecture rtl;")
        w.w()

    def _machine_case(self, w: _Writer, cls: ir.ClassDef) -> None:
        w.w("case state is")
        w.indent += 1
        for st in cls.machine.states:
            w.w(f"when {_v_state(st.name)} =>")
            w.indent += 1
            if st.transitions:
                w.w("case ev_id is")
                w.indent += 1
                for tr in st.transitions:
                    w.w(f"when {_v_event(cls.name, tr.signal)} =>")
                    w.indent += 1
                    self._stmts(w, tr.actions, self._params(cls, tr))
                    w.w(f"state <= {_v_state(tr.target)};")
                    w.indent -= 1
                w.w("when others =>")
                w.w("    null; -- unhandled in this state: dropped")
                w.indent -= 1
                w.w("end case;")
            else:
                w.w("null;")
            w.indent -= 1
        w.indent -= 1
        w.w("end case;")

    def send(self, w: _Writer, s: ir.Send, recv: str, params: _Params) -> None:
        # an intra-hardware send uses the local event interconnect
        local = self.partition.domain[recv] == part.HW
        var = "v_loc" if local else "v_snd"
        w.w(f"-- send {s.instance}.{s.signal} ({'local' if local else 'cross-boundary'})")
        w.w(f"{var} := (others => '0');")
        for f, a in zip(self.layouts[(recv, s.signal)], s.args):
            w.w(
                f"{var}({f.bit_offset + f.width_bits - 1} downto {f.bit_offset}) :="
                f" std_logic_vector({_v_expr(a, params)});"
            )
        if local:
            w.w("loc_valid <= '1';")
            w.w(f"loc_inst <= {_v_inst(s.instance)};")
            w.w(f"loc_ev <= {_v_event(recv, s.signal)};")
            w.w("loc_args <= v_loc;")
        else:
            w.w("snd_valid <= '1';")
            w.w(f"snd_sig <= {mangle(recv, s.signal)};")
            w.w("snd_payload <= v_snd;")


def emit_vhdl(
    model: ir.Model,
    partition: part.Partition,
    manifest: InterfaceManifest,
    name: str = "model",
) -> str:
    """Emit the hardware half as one VHDL text."""
    return _VhdlEmitter(model, partition, manifest, name).emit()


# ---------------------------------------------------------------------------
# Combined emission and the interface cross-check
# ---------------------------------------------------------------------------


@dataclass
class EmitOutput:
    c_source: str
    c_header: str
    vhdl_source: str
    manifest: InterfaceManifest


def emit(
    model: ir.Model, partition: part.Partition, name: str = "model"
) -> EmitOutput:
    manifest = build_manifest(model, partition)
    c_source, c_header = emit_c(model, partition, manifest, name)
    vhdl_source = emit_vhdl(model, partition, manifest, name)
    return EmitOutput(c_source, c_header, vhdl_source, manifest)


@dataclass
class CheckReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        return "\n".join(self.problems) if self.problems else "interfaces consistent"


_C_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(SIG_[A-Za-z0-9_]+)\s+(\d+)\s*$")
_VHDL_CONST_RE = re.compile(
    r"^\s*constant\s+(SIG_[A-Za-z0-9_]+)\s*:\s*natural\s*:=\s*(\d+)\s*;\s*(?:--.*)?$"
)


def _scan(text: str, pattern: re.Pattern) -> dict[str, int]:
    found: dict[str, int] = {}
    for line in text.splitlines():
        m = pattern.match(line)
        if m:
            found[m.group(1)] = int(m.group(2))
    return found


def check_interfaces(
    c_header: str, vhdl_source: str, manifest: InterfaceManifest
) -> CheckReport:
    """Verify that both emitted texts carry exactly the manifest's
    boundary constants (same names, ids and payload widths).

    The scan is tolerant and line-oriented, so it works on files that
    were edited or corrupted after generation.
    """
    expected = dict(_constants(manifest))

    problems: list[str] = []
    for side, found in (
        ("C header", _scan(c_header, _C_DEFINE_RE)),
        ("VHDL", _scan(vhdl_source, _VHDL_CONST_RE)),
    ):
        for name in sorted(expected):
            if name not in found:
                problems.append(f"{side}: missing {name}")
            elif found[name] != expected[name]:
                problems.append(
                    f"{side}: divergence {name}: {found[name]} != {expected[name]}"
                )
        for name in sorted(set(found) - set(expected)):
            problems.append(f"{side}: unexpected {name} = {found[name]}")
    return CheckReport(problems=problems)
