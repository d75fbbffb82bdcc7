"""Seeded ring-model generator with a closed-form oracle.

A ring has N instances ``n0 .. n{N-1}``, one class ``R<i>`` per instance,
because routing is static and the language has no loops: each class sends
to its own successor. K tokens start at evenly spaced nodes with TTL T.
Every hop adds to the receiver's attributes and forwards ``Tok($ttl - 1)``
while ``$ttl > 0``, so each token makes T + 1 hops. Every class has two
states and each hop toggles between them. Marks put every odd class in HW;
with N even, every forward then crosses the HW/SW boundary.

The oracle computes the expected attribute values, final states, step
count K*(T+1) and bus crossings K*T directly from the generator's
parameters, without calling comodel. The expected attributes go into the
scenario as ``expect`` lines; the counts are checked by the benchmark.

Two hop bodies exist:

* ``light``: two ``u32`` additions of seeded constants (the ring-wide
  workload, where scheduling dominates);
* ``heavy``: an arithmetic accumulator plus an ``if`` on ``&&``, ``||``
  and comparisons with both branches writing (the ring-narrow workload,
  where expression evaluation dominates).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RingSpec:
    instances: int
    tokens: int
    ttl: int
    body: str  # "light" | "heavy"

    def __post_init__(self) -> None:
        if self.instances < 2 or self.instances % 2:
            raise ValueError("instances must be even and >= 2")
        if self.tokens < 1 or self.instances % self.tokens:
            raise ValueError("tokens must divide instances")
        if not 0 <= self.ttl <= MASK32:
            raise ValueError("ttl must fit u32")
        if self.body not in ("light", "heavy"):
            raise ValueError(f"unknown body {self.body!r}")


@dataclass
class Ring:
    spec: RingSpec
    model_text: str
    marks_text: str
    scenario_text: str
    expected_attrs: dict[str, dict[str, int]]
    expected_states: dict[str, str]
    steps: int  # dispatch steps of one run: K * (T + 1)
    bus_crossings: int  # sends that cross the boundary: K * T
    boundary_signals: int  # one Tok per receiving class


def _heavy_cond(t: int, p: int, q: int, r: int, s: int) -> bool:
    return (p < t < q) or t == r or t >= s


def generate(spec: RingSpec, seed: int) -> Ring:
    """Build the ring texts and their oracle from `spec` and `seed`."""
    rng = random.Random(seed)
    n, k, ttl = spec.instances, spec.tokens, spec.ttl
    add_count = [rng.randrange(1, 1000) for _ in range(n)]
    add_acc = [rng.randrange(1, 100_000) for _ in range(n)]
    # heavy-body condition constants, shared by every class
    p = rng.randrange(0, max(1, ttl // 2))
    q = p + rng.randrange(1, max(2, ttl // 2))
    r = rng.randrange(0, ttl + 1)
    s = rng.randrange(ttl // 2, ttl + 2)
    offset = rng.randrange(n)
    starts = [(offset + j * (n // k)) % n for j in range(k)]

    def body(i: int) -> list[str]:
        nxt = (i + 1) % n
        lines = [f"count = count + {add_count[i]};"]
        if spec.body == "light":
            lines.append(f"acc = acc + {add_acc[i]};")
        else:
            lines.append("acc = acc + ($ttl * 3 + 7) * ($ttl + 1);")
            lines.append(
                f"if (($ttl > {p} && $ttl < {q}) || $ttl == {r} || $ttl >= {s}) "
                "{ hi = hi + $ttl; } else { lo = lo + 1; }"
            )
        lines.append(f"if ($ttl > 0) {{ send n{nxt}.Tok($ttl - 1); }}")
        return lines

    attrs = ["count", "acc"] + (["hi", "lo"] if spec.body == "heavy" else [])
    model: list[str] = []
    for i in range(n):
        model.append(f"class R{i} {{")
        model.extend(f"  attr {a}: u32 = 0;" for a in attrs)
        model.append("  signal Tok(ttl: u32);")
        model.append("  statemachine {")
        model.append("    initial Even;")
        for src, dst in (("Even", "Odd"), ("Odd", "Even")):
            model.append(f"    state {src} {{")
            model.append(f"      on Tok -> {dst} {{")
            model.extend(f"        {line}" for line in body(i))
            model.append("      }")
            model.append("    }")
        model.append("  }")
        model.append("}")
    model.extend(f"instance n{i}: R{i};" for i in range(n))

    # Oracle: token j visits node (starts[j] + h) % n with ttl (ttl - h).
    values = {f"n{i}": dict.fromkeys(attrs, 0) for i in range(n)}
    visits = [0] * n
    for start in starts:
        for h in range(ttl + 1):
            i = (start + h) % n
            t = ttl - h
            v = values[f"n{i}"]
            visits[i] += 1
            v["count"] = (v["count"] + add_count[i]) & MASK32
            if spec.body == "light":
                v["acc"] = (v["acc"] + add_acc[i]) & MASK32
            else:
                v["acc"] = (v["acc"] + (t * 3 + 7) * (t + 1)) & MASK32
                if _heavy_cond(t, p, q, r, s):
                    v["hi"] = (v["hi"] + t) & MASK32
                else:
                    v["lo"] = (v["lo"] + 1) & MASK32

    scenario = [f"at 0 send n{start}.Tok({ttl});" for start in starts]
    for inst, v in values.items():
        scenario.extend(f"expect {inst}.{a} == {v[a]};" for a in attrs)
    scenario.append("confluent;")

    marks = [f"mark isHardware on R{i};" for i in range(1, n, 2)]

    return Ring(
        spec=spec,
        model_text="\n".join(model) + "\n",
        marks_text="\n".join(marks) + "\n",
        scenario_text="\n".join(scenario) + "\n",
        expected_attrs=values,
        expected_states={f"n{i}": ("Odd" if visits[i] % 2 else "Even") for i in range(n)},
        steps=k * (ttl + 1),
        bus_crossings=k * ttl,
        boundary_signals=n,
    )

