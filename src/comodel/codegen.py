"""Code generation: one interface manifest, two target texts.

The manifest is the single description of every cross-boundary signal:
a dense 0-based id (assigned in ascending (receiver class, signal name)
order), a direction, and a packed payload layout (parameters in
declaration order, bit offsets ascending from 0, bit 0 least
significant). Both emitted targets derive their boundary constants from
it, so the two halves agree by construction; `check_interfaces`
re-extracts the constants from the emitted texts and verifies them
against the manifest, which also catches externally tampered files.

`emit` derives what the halves share once per call, in one `EmitPlan`:
the checked model, every payload layout, and each domain's classes and
instances in document order. The manifest and both rules read it and
derive none of it again. One emitter skeleton serves both targets: it
walks each transition's actions, and the `isHardware` mark picks the
mapping rule that prints a class. Each rule spells every identifier it
prints in its own naming code and declares it, as it prints it, in one
scope of its target (see `_Scope`): so a model is rejected exactly when
a printed name collides (`E_NAME_CLASH`) or is one the target reserves
or cannot spell (`E_TARGET_NAME`). The C rule gives each software class
a state enum, an event enum (in the header, so a platform can inject),
an instance struct with exact-width unsigned attributes and a dispatch
function mirroring the transition table. All software instances share
one event FIFO of `{inst, ev, args}` slots, `QUEUE_CAP` = 64 per
software instance, filled only by `<model>_inject`: local sends, bus
deliveries (`bus_deliver`) and the platform all enqueue through it, and
`<model>_step` dispatches the oldest slot. That is the interpreter's
global-fifo rule, under which an island serves envelopes in the order
they reach it. So an all-SW half serves events in `run`'s order, and a
split half, as the SW island of a cosim, in `cosim`'s. Outbound boundary
sends go through the platform's `bus_send`.
The VHDL rule gives each hardware class an entity with clock/reset and
event input ports and a synchronous process implementing the same
transition table over unsigned registers; each send statement raises its
own output slot, so every send of a step leaves on one clock edge. Its
package names only the boundary signals and the hardware classes' events.
All arithmetic wraps at the declared widths in both targets. Tests run
the C half against the interpreter, all-SW and split across the bus, so
C matches it bit for bit; a test-only evaluator runs each entity one
clock edge at a time against the interpreter's step, so each VHDL
transition matches it too. Nothing instantiates the entities.

Each rule's fixed text lives in module-level templates (`_Template`) whose
`${hole}`s take text that is already rendered; only the action walker
prints line by line, passing an indent string down. The names the fixed
text declares (`_C_DECLARED`, `_C_MACROS`, `_VHDL_ENTITY_RESERVED`) are
derived from the templates at import; only the target keywords, the
`<stdint.h>` names and `_VHDL_LIBRARY` are kept by hand.

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


class EmitPlan:
    """What one `emit` derives once: the checked record, the packed payload
    of every (class, signal), and each domain's classes and (instance,
    class) pairs in document order, so a SW instance's index is its `SWI_`
    number. It lives for one call, not on the model."""

    def __init__(self, model: ir.Model, partition: part.Partition, name: str):
        self.model, self.partition, self.name = model, partition, name
        self.checked = ir.ensure_valid(model)
        self.layouts: dict[tuple[str, str], list[PayloadField]] = {}
        for key, sig in self.checked.signals.items():
            layout = self.layouts[key] = []
            offset = 0
            for p in sig.params:
                layout.append(PayloadField(p.name, ir.WIDTHS[p.type], offset))
                offset += ir.WIDTHS[p.type]
        self.classes = {part.SW: [], part.HW: []}
        for cls in self.checked.classes.values():
            self.classes[partition.domain[cls.name]].append(cls)
        self.instances = {part.SW: [], part.HW: []}
        for inst, cls in self.checked.instance_class.items():
            self.instances[partition.domain[cls.name]].append((inst, cls))


def build_manifest(plan: EmitPlan) -> InterfaceManifest:
    """Derive the interface manifest of a plan's (model, partition) pair."""
    signals = []
    for idx, bs in enumerate(part.boundary(plan.model, plan.partition)):
        payload = plan.layouts[(bs.receiver_class, bs.signal)]
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
    return InterfaceManifest(
        model_hash=model_content_hash(plan.model, plan.partition), signals=signals
    )


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
# the typedefs and the macros <stdint.h> declares
_STDINT_TYPES = frozenset(f"{s}_t" for s in _STDINT_STEMS)
_STDINT_MACROS = frozenset(
    [f"{s.upper()}_MAX" for s in _STDINT_STEMS]
    + [f"{s.upper()}_MIN" for s in _STDINT_STEMS if s[0] == "i"]
    + [f"{s.upper()}_C" for s in _STDINT_STEMS if "_" not in s and "ptr" not in s]
    + """PTRDIFF_MIN PTRDIFF_MAX SIG_ATOMIC_MIN SIG_ATOMIC_MAX SIZE_MAX WCHAR_MIN WCHAR_MAX
         WINT_MIN WINT_MAX""".split()
)
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
# the ieee and work names the fixed text uses, `std` (which every design unit
# sees unnamed), and the package's own functions
_VHDL_LIBRARY = frozenset("""
    ieee std work std_logic_1164 numeric_std std_logic std_logic_vector unsigned natural
    boolean rising_edge to_unsigned resize to_u1 to_bool
""".split())
# --- seeded name tables: end ---


# ---------------------------------------------------------------------------
# Shared emission helpers
# ---------------------------------------------------------------------------


class _Template:
    """Fixed target text with `${hole}`s. It is split into its literal parts
    once, so a fill only joins them with the hole values. A hole value is
    text that is already rendered, with its own indentation."""

    def __init__(self, text: str):
        parts = re.split(r"\$\{(\w+)\}", text)
        self.text = text
        self.head = parts[0]
        self.tail = list(zip(parts[1::2], parts[2::2]))

    def __call__(self, **values: object) -> str:
        return self.head + "".join([f"{values[hole]}{text}" for hole, text in self.tail])


def _fixed_text(skip: str, *templates: _Template) -> str:
    """The templates' text, less what `skip` matches: comments and literals."""
    return re.sub(skip, " ", "\n".join(t.text for t in templates))


def _words(text: str) -> frozenset[str]:
    """The identifiers of template text; a word that a hole touches is the model's."""
    words = re.findall(r"(?:\$\{\w+\}|\w)+", text)
    return frozenset(w for w in words if "$" not in w and not w[0].isdigit())


def _payload_bits(layout: list[PayloadField]) -> int:
    return sum(f.width_bits for f in layout)


# A transition's parameters: name -> (position in the args, packed field).
_Params = dict[str, tuple[int, PayloadField]]


class _Emitter:
    """The emitter skeleton (see the module docstring). A target gives its
    `DOMAIN`, its `assign`, `if_`, `ELSE` and `END_IF` syntax, its `expr`
    printer, and its `send(out, pad, s, receiver class, params)`. The
    action walker appends lines to `out`, each starting with `pad`."""

    def __init__(self, plan: EmitPlan, manifest: InterfaceManifest):
        self.plan = plan
        self.name = plan.name
        self.manifest = manifest
        self.constants = _constants(manifest)
        self.layouts = plan.layouts
        self.classes = plan.classes[self.DOMAIN]
        self.instances = plan.instances[self.DOMAIN]

    def _params(self, cls: ir.ClassDef, tr: ir.TransitionDef) -> _Params:
        return {f.name: (i, f) for i, f in enumerate(self.layouts[(cls.name, tr.signal)])}

    def _stmts(self, out: list[str], pad: str, stmts: list[ir.Stmt], params: _Params) -> None:
        for s in stmts:
            if isinstance(s, ir.Assign):
                out.append(pad + self.assign(s.attr, self.expr(s.value, params)))
            elif isinstance(s, ir.Send):
                self.send(out, pad, s, self.plan.checked.instance_class[s.instance].name, params)
            elif isinstance(s, ir.If):
                out.append(pad + self.if_(self.expr(s.cond, params)))
                self._stmts(out, pad + "    ", s.then, params)
                if s.orelse:
                    out.append(pad + self.ELSE)
                    self._stmts(out, pad + "    ", s.orelse, params)
                out.append(pad + self.END_IF)


def _lines(out: list[str]) -> str:
    return "".join([line + "\n" for line in out])


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


# -- fixed text --

_C_HEADER = _Template("""\
/* Generated software interface header. Do not edit. */
#ifndef ${guard}
#define ${guard}

#include <stdint.h>

/* model hash ${hash} */

/* Boundary signal ids and payload widths */
${constants}
/* Software instance ids (dispatch and bus addressing) */
${swi}#define SW_INSTANCE_COUNT ${count}u

${events}/* Provided by the platform: outbound boundary transport. */
void ${model}_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits);

void ${model}_reset(void);
int ${model}_step(void);
void ${model}_inject(uint32_t inst_id, uint32_t ev, const uint32_t *args, uint32_t nargs);
void ${model}_bus_deliver(uint32_t inst_id, uint32_t sig_id, const uint8_t *payload);

#endif /* ${guard} */
""")
_C_EVENTS = _Template("""\
/* Event ids of each software class: the `ev` of ${model}_inject */
${enums}""")
_C_ENUM = _Template("""\
typedef enum {
${names}
} ${type};

""")
_C_SOURCE = _Template("""\
/* Generated software half. Do not edit. */
#include <stdint.h>
#include "${model}_sw.h"

#define QUEUE_CAP ${queue_cap}u /* 64 per SW instance */
#define MAX_ARGS ${max_args}u

typedef struct {
    uint32_t inst;
    uint32_t ev;
    uint32_t args[MAX_ARGS];
} event_slot_t;

/* one FIFO for every software instance, in enqueue order */
static event_slot_t queue[QUEUE_CAP];
static uint32_t queue_head;
static uint32_t queue_count;

void ${model}_inject(uint32_t inst_id, uint32_t ev,
        const uint32_t *args, uint32_t nargs) {
    event_slot_t *slot;
    uint32_t k;
    if (queue_count == QUEUE_CAP) {
        return; /* overflow: dropped */
    }
    slot = &queue[(queue_head + queue_count) % QUEUE_CAP];
    slot->inst = inst_id;
    slot->ev = ev;
    for (k = 0; k < MAX_ARGS; k++) {
        slot->args[k] = (args != 0 && k < nargs) ? args[k] : 0u;
    }
    queue_count++;
}

${classes}${put_bits}${get_bits}${dispatch}void ${model}_reset(void) {
${reset}    queue_head = 0u;
    queue_count = 0u;
}

static void sw_dispatch(uint32_t inst_id, uint32_t ev,
                        const uint32_t *args) {
${sw_dispatch}}

int ${model}_step(void) {
    event_slot_t slot;
    if (queue_count == 0u) {
        return 0;
    }
    slot = queue[queue_head];
    queue_head = (queue_head + 1u) % QUEUE_CAP;
    queue_count--;
    sw_dispatch(slot.inst, slot.ev, slot.args);
    return 1;
}

void ${model}_bus_deliver(uint32_t inst_id, uint32_t sig_id,
        const uint8_t *payload) {
${bus_deliver}}
""")
_C_PUT_BITS = _Template("""\
static void put_bits(uint8_t *buf, uint32_t offset, uint32_t width,
                     uint32_t value) {
    uint32_t k;
    for (k = 0; k < width; k++) {
        uint32_t bit = offset + k;
        if ((value >> k) & 1u) {
            buf[bit / 8u] |= (uint8_t)(1u << (bit % 8u));
        }
    }
}

""")
_C_GET_BITS = _Template("""\
static uint32_t get_bits(const uint8_t *buf, uint32_t offset,
                         uint32_t width) {
    uint32_t value = 0;
    uint32_t k;
    for (k = 0; k < width; k++) {
        uint32_t bit = offset + k;
        if ((buf[bit / 8u] >> (bit % 8u)) & 1u) {
            value |= (1u << k);
        }
    }
    return value;
}

""")
_C_CLASS = _Template("""\
/* ---- class ${cls} ---- */

${states}typedef struct {
    ${cls}_state_t state;
${members}} ${type};

""")
_C_DISPATCH = _Template("""\
static void ${fn}(${cls}_t *self, uint32_t ev,
        const uint32_t *args) {
    (void)args;
${body}}

""")
_C_SW_SWITCH = _Template("""\
    switch (inst_id) {
${cases}    default:
        break;
    }
""")
_C_DELIVER_SWITCH = _Template("""\
    uint32_t args[MAX_ARGS];
    uint32_t k;
    (void)payload;
    for (k = 0; k < MAX_ARGS; k++) {
        args[k] = 0;
    }
    switch (sig_id) {
${cases}    default:
        break;
    }
""")
# the body of a function with nothing to do marks its parameters unused
_C_DISPATCH_IDLE = _Template("    (void)self;\n    (void)ev;\n")
_C_SW_IDLE = _Template("    (void)inst_id;\n    (void)ev;\n    (void)args;\n")
_C_DELIVER_IDLE = _Template("    (void)inst_id;\n    (void)sig_id;\n    (void)payload;\n")
_C_FIXED = _fixed_text(r'/\*.*?\*/|"[^"]*"|<stdint\.h>', _C_HEADER, _C_EVENTS, _C_ENUM, _C_SOURCE,
                       _C_PUT_BITS, _C_GET_BITS, _C_CLASS, _C_DISPATCH, _C_DISPATCH_IDLE,
                       _C_SW_SWITCH, _C_SW_IDLE, _C_DELIVER_SWITCH, _C_DELIVER_IDLE)
# the platform interface the header declares: `<model>_<function>`
_C_API = re.findall(r"\$\{model\}_(\w+)\(", _C_HEADER.text)
# the macros <stdint.h> and the fixed text define
_C_MACROS = _STDINT_MACROS | frozenset(re.findall(r"#define (\w+)", _C_FIXED))
# every name <stdint.h> and the fixed text declare: the macros, the typedefs, functions
# and statics, and the parameters and locals; plus `sargs`, the walker's local-send
# buffer. The templates also print words with no `_` that declare nothing at file
# scope (`inst`, `state`, the preprocessor's); every generated file-scope name joins
# a model name with `_`, so they decide nothing.
_C_DECLARED = _C_MACROS | _STDINT_TYPES | (_words(_C_FIXED) - _C_KEYWORDS) | {"sargs"}


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
        they reach into. Each name is declared in the order it prints."""
        guard = self.macro(_c_guard(self.name))
        constants = "".join(f"#define {self.macro(n)} {v}\n" for n, v in self.constants)
        swi = "".join(
            f"#define {self.macro(_c_swi(i))} {k}u\n" for k, (i, _) in enumerate(self.instances)
        )
        enums = "".join(
            self._enum(f"{cls.name}_event_t", [_c_event(cls.name, s.name) for s in cls.signals])
            for cls in self.classes if cls.signals
        )
        for fn in _C_API:
            self.file.declare(f"{self.name}_{fn}")
        return _C_HEADER(
            guard=guard, hash=self.manifest.model_hash, constants=constants, swi=swi,
            count=len(self.instances), model=self.name,
            events=_C_EVENTS(model=self.name, enums=enums) if enums else "",
        )

    def source(self) -> str:
        outbound = [s for s in self.manifest.signals if s.direction == part.SW_TO_HW]
        inbound = [s for s in self.manifest.signals if s.direction == part.HW_TO_SW]
        # names are declared in print order: classes, storage, dispatch functions
        classes = "".join([self._class_decl(cls) for cls in self.classes])
        # each SW class's delivery guard: the id is none of the class's instances
        storage, reset, cases, guards = [], [], [], {}
        for inst, cls in self.instances:
            var = self.file.declare(_c_storage(inst))
            storage.append(f"static {cls.name}_t {var};")
            reset.append(f"    {var}.state = {_c_state(cls.name, cls.machine.initial)};")
            reset += [f"    {var}.{a.name} = {int(a.default)}u;" for a in cls.attributes]
            cases += [f"    case {_c_swi(inst)}:",
                      f"        {cls.name}_dispatch(&{var}, ev, args);", "        break;"]
            guards.setdefault(cls.name, []).append(f"inst_id != {_c_swi(inst)}")
        deliver = []
        for s in inbound:
            # an event id is unique only within its class: another instance would misread it
            deliver += [f"    case {mangle(s.receiver_class, s.signal)}: {{",
                        f"        if ({' && '.join(guards[s.receiver_class])}) {{",
                        "            break;", "        }"]
            deliver += [f"        args[{i}] = get_bits(payload, {f.bit_offset}u, {f.width_bits}u);"
                        for i, f in enumerate(s.payload)]
            ev = _c_event(s.receiver_class, s.signal)
            deliver += [f"        {self.name}_inject(inst_id, {ev}, args, {len(s.payload)}u);",
                        "        break;", "    }"]
        return _C_SOURCE(
            model=self.name,
            queue_cap=64 * max(1, len(self.instances)),
            max_args=max([1] + [len(lay) for lay in self.layouts.values()]),
            classes=classes + _lines(storage) + ("\n" if storage else ""),
            put_bits=_C_PUT_BITS() if any(s.payload for s in outbound) else "",
            get_bits=_C_GET_BITS() if any(s.payload for s in inbound) else "",
            dispatch="".join([self._dispatch_fn(cls) for cls in self.classes]),
            reset=_lines(reset),
            sw_dispatch=_C_SW_SWITCH(cases=_lines(cases)) if cases else _C_SW_IDLE(),
            bus_deliver=_C_DELIVER_SWITCH(cases=_lines(deliver)) if deliver else _C_DELIVER_IDLE(),
        )

    def _class_decl(self, cls: ir.ClassDef) -> str:
        states = [_c_state(cls.name, st.name) for st in cls.machine.states]
        enum = self._enum(f"{cls.name}_state_t", states)
        members = _Scope(f"C struct {cls.name}_t", _C_NAME, _C_MEMBER_RESERVED, self.macros)
        fields = [f"    {C_TYPES[a.type]} {members.declare(a.name)};" for a in cls.attributes]
        struct = self.file.declare(f"{cls.name}_t")
        return _C_CLASS(cls=cls.name, states=enum, members=_lines(fields), type=struct)

    def _enum(self, type_name: str, names: list[str]) -> str:
        """A C enum of `names`, numbered from 0."""
        return _C_ENUM(
            names=",\n".join(f"    {self.file.declare(n)} = {i}" for i, n in enumerate(names)),
            type=self.file.declare(type_name),
        )

    def send(self, out: list[str], pad: str, s: ir.Send, recv: str, params: _Params) -> None:
        inner = pad + "    "
        if self.plan.partition.domain[recv] == part.SW:
            inject = f"{self.name}_inject({_c_swi(s.instance)}, {_c_event(recv, s.signal)}"
            if not s.args:
                out.append(f"{pad}{inject}, 0, 0u);")
                return
            out += [pad + "{", inner + "uint32_t sargs[MAX_ARGS];"]
            out += [f"{inner}sargs[{i}] = (uint32_t){_c_expr(a, params)};"
                    for i, a in enumerate(s.args)]
            out += [f"{inner}{inject}, sargs, {len(s.args)}u);", pad + "}"]
        else:
            macro = mangle(recv, s.signal)
            layout = self.layouts[(recv, s.signal)]
            out += [
                f"{pad}{{ /* send {s.instance}.{s.signal}: cross-boundary */",
                f"{inner}uint8_t payload[{max(1, (_payload_bits(layout) + 7) // 8)}] = {{0}};",
            ]
            out += [
                f"{inner}put_bits(payload, {f.bit_offset}u, {f.width_bits}u,"
                f" (uint32_t){_c_expr(a, params)});"
                for f, a in zip(layout, s.args)
            ]
            out += [f"{inner}{self.name}_bus_send({macro}, payload, {macro}_BITS);", pad + "}"]

    def _dispatch_fn(self, cls: ir.ClassDef) -> str:
        fn = self.file.declare(f"{cls.name}_dispatch")
        out: list[str] = []
        if any(st.transitions for st in cls.machine.states):
            self._machine_case(out, "    ", cls)
        return _C_DISPATCH(fn=fn, cls=cls.name, body=_lines(out) if out else _C_DISPATCH_IDLE())

    def _machine_case(self, out: list[str], pad: str, cls: ir.ClassDef) -> None:
        out.append(pad + "switch (self->state) {")
        for st in cls.machine.states:
            out.append(f"{pad}case {_c_state(cls.name, st.name)}:")
            if st.transitions:
                out.append(pad + "    switch (ev) {")
                for tr in st.transitions:
                    out.append(f"{pad}    case {_c_event(cls.name, tr.signal)}: {{")
                    self._stmts(out, pad + "        ", tr.actions, self._params(cls, tr))
                    out += [f"{pad}        self->state = {_c_state(cls.name, tr.target)};",
                            pad + "        break;", pad + "    }"]
                out += [pad + "    default:",
                        pad + "        break; /* unhandled in this state: dropped */",
                        pad + "    }"]
            out.append(pad + "    break;")
        out.append(pad + "}")


def emit_c(plan: EmitPlan, manifest: InterfaceManifest) -> tuple[str, str]:
    """Emit the software half; returns (c_source, c_header)."""
    emitter = _CEmitter(plan, manifest)
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


# -- fixed text --

# The package's functions print their parameters `b` and `u` and the
# attribute `length`; no table holds them, as a HW class may be named `b`.
_V_PACKAGE = _Template("""\
-- Generated hardware half. Do not edit.
-- model hash ${hash}

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package ${iface} is
    -- Boundary signal ids and payload widths
${constants}    -- Class-local event ids of the hardware classes
${events}    function to_u1(b : boolean) return unsigned;
    function to_bool(u : unsigned) return boolean;
end package ${iface};

package body ${iface} is
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
end package body ${iface};

${entities}""")
_V_ENTITY = _Template("""\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.${iface}.all;

entity ${entity} is
    port (
        clk : in std_logic;
        rst : in std_logic;
        ev_valid : in std_logic;
        ev_id : in natural range 0 to ${ev_max};
        ev_args : in std_logic_vector(${ev_high} downto 0);
        -- one send slot per send statement, in document order
${slots}        send_valid : out std_logic_vector(${valid_high} downto 0);
        send_args : out std_logic_vector(${args_high} downto 0)
    );
end entity ${entity};

architecture rtl of ${entity} is
    type state_t is (${states});
    signal state : state_t;
${registers}begin
    step : process (clk)
${variables}    begin
        if rising_edge(clk) then
            if rst = '1' then
                state <= ${initial};
${resets}                send_valid <= (others => '0');
                send_args <= (others => '0');
            else
                send_valid <= (others => '0');
                if ev_valid = '1' then
${loads}${case}${stores}                end if;
            end if;
        end if;
    end process step;
end architecture rtl;

""")
# what every entity declares for itself: its ports, state, variables and labels
_VHDL_ENTITY_RESERVED = _VHDL_RESERVED | {
    w.lower() for w in _words(_fixed_text(r"--[^\n]*|'[01]'", _V_ENTITY))
} - _VHDL_LIBRARY


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

    def _constant(self, name: str, value: int) -> str:
        return f"    constant {self.pkg.declare(name)} : natural := {value};\n"

    def emit(self) -> str:
        # the keyword arguments run in order, and so do the declarations
        return _V_PACKAGE(
            hash=self.manifest.model_hash,
            iface=self.iface,
            constants="".join(self._constant(name, value) for name, value in self.constants),
            events="".join(
                self._constant(_v_event(cls.name, s.name), i)
                for cls in self.classes
                for i, s in enumerate(cls.signals)
            ),
            entities="".join([self._entity(cls) for cls in self.classes]),
        )

    def _entity(self, cls: ir.ClassDef) -> str:
        ev_bits = max([1] + [_payload_bits(self.layouts[(cls.name, s.name)]) for s in cls.signals])
        entity = self.pkg.declare(cls.name)
        ent = _Scope(f"VHDL entity {cls.name}", _VHDL_NAME, _VHDL_ENTITY_RESERVED, fold=True)
        states = ", ".join(ent.declare(_v_state(st.name)) for st in cls.machine.states)
        attrs = [(_v_reg(a.name), _v_var(a.name), ir.WIDTHS[a.type], a) for a in cls.attributes]
        registers = [f"    signal {ent.declare(r)} : unsigned({n - 1} downto 0);"
                     for r, _, n, _ in attrs]
        variables = [f"        variable {ent.declare(v)} : unsigned({n - 1} downto 0);"
                     for _, v, n, _ in attrs]
        resets = [f"{' ' * 16}{r} <= to_unsigned({int(a.default)}, {n});" for r, _, n, a in attrs]
        loads = [f"{' ' * 20}{v} := {r};" for r, v, _, _ in attrs]
        case: list[str] = []
        # the walker's send slots: a port comment per slot, and the bits of their args
        self.slots: list[str] = []
        self.slot_bits = 0
        self._machine_case(case, " " * 20, cls)
        return _V_ENTITY(
            iface=self.iface, entity=entity, ev_max=max(1, len(cls.signals)) - 1,
            ev_high=ev_bits - 1, slots=_lines(self.slots), valid_high=max(1, len(self.slots)) - 1,
            args_high=max(1, self.slot_bits) - 1, states=states,
            registers=_lines(registers), variables=_lines(variables),
            initial=_v_state(cls.machine.initial), resets=_lines(resets), loads=_lines(loads),
            case=_lines(case), stores=_lines([f"{' ' * 20}{r} <= {v};" for r, v, _, _ in attrs]),
        )

    def _machine_case(self, out: list[str], pad: str, cls: ir.ClassDef) -> None:
        out.append(pad + "case state is")
        for st in cls.machine.states:
            out.append(f"{pad}    when {_v_state(st.name)} =>")
            if st.transitions:
                out.append(pad + "        case ev_id is")
                for tr in st.transitions:
                    out.append(f"{pad}            when {_v_event(cls.name, tr.signal)} =>")
                    self._stmts(out, pad + " " * 16, tr.actions, self._params(cls, tr))
                    out.append(f"{pad}                state <= {_v_state(tr.target)};")
                out += [pad + "            when others =>",
                        pad + "                null; -- unhandled in this state: dropped",
                        pad + "        end case;"]
            else:
                out.append(pad + "        null;")
        out.append(pad + "end case;")

    def send(self, out: list[str], pad: str, s: ir.Send, recv: str, params: _Params) -> None:
        # slot k is the entity's k-th send statement; its args take the bits after the last slot's
        k, base = len(self.slots), self.slot_bits
        layout = self.layouts[(recv, s.signal)]
        out += [
            f"{pad}send_args({base + f.bit_offset + f.width_bits - 1} downto {base + f.bit_offset})"
            f" <= std_logic_vector({_v_expr(a, params)});"
            for f, a in zip(layout, s.args)
        ]
        out.append(f"{pad}send_valid({k}) <= '1';")
        self.slot_bits += _payload_bits(layout)
        route = "local" if self.plan.partition.domain[recv] == part.HW else mangle(recv, s.signal)
        self.slots.append(f"        -- send_valid({k}): {s.instance}.{s.signal} ({route})")


def emit_vhdl(plan: EmitPlan, manifest: InterfaceManifest) -> str:
    """Emit the hardware half as one VHDL text."""
    return _VhdlEmitter(plan, manifest).emit()


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
    plan = EmitPlan(model, partition, name)
    manifest = build_manifest(plan)
    c_source, c_header = emit_c(plan, manifest)
    vhdl_source = emit_vhdl(plan, manifest)
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
