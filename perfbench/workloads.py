"""Workloads of the revlogic benchmark: seeded inputs, requests and oracles.

Every workload is a closed loop with one caller: the next request starts
only when the previous one has returned. A workload has three parts:

* ``generate(seed)`` makes the benchmark's own inputs as pure data. It
  calls nothing in revlogic, and its time is not part of ``setup_s``.
* ``setup(inputs)`` does what a user pays once per process: building the
  workload's circuits and the first ``simulate`` call.
* ``request(state, i)`` runs request ``i`` and checks its result against
  an oracle that does not come from the circuit under test. It returns
  ``(ok, words, fingerprint)``: whether every check held, how many
  circuit input words (or circuits) the request evaluated, and a string
  that identifies the result, so two runs can be compared exactly.

revlogic is always called through module attributes (``designs.x``,
``netlist_text.y``) and methods, never through names bound here, so the
tracer's patches in ``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

from revlogic import cli, designs, gates, metrics, netlist, netlist_text

# Gate arities of the built-in catalog, kept here so that plan generation
# needs no call into the program. If the catalog ever disagrees, the
# builder raises ArityMismatch and the request counts as failed.
GATE_ARITY = {"FG": 2, "FRG": 3, "TG": 3, "NG": 3, "PG": 3, "HNG": 4, "SCL": 4}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def bcd_cases(digits: int) -> int:
    """Exhaustive case count by decimal arithmetic: 10^n * 10^n * 2."""
    return 2 * 100**digits


def preflight() -> list[str]:
    """Check the paper's figures; returns one message per failed check."""
    problems = []
    digit = designs.build_bcd_adder_digit()
    report = metrics.analyze(digit)
    figures = (report.gate_count, report.garbage_count,
               report.constant_count, report.delay_levels)
    if figures != (8, 10, 6, 8):
        problems.append(f"gates/garbage/constants/delay are {figures}, paper: 8/10/6/8")
    split = list(metrics.delay_decomposition(digit, designs.bcd_digit_stage_tags()).items())
    if split != [("adder1", 4), ("correction", 1), ("adder2", 3)]:
        problems.append(f"delay split is {split}, paper: adder1 4 + correction 1 + adder2 3")
    for digits in (1, 2):
        cases = bcd_cases(digits)
        total, failures = designs.verify_bcd_adder(digits)
        if (total, len(failures)) != (cases, 0):
            problems.append(f"verify --digits {digits}: {total - len(failures)}/{total}"
                            f" cases pass, paper: {cases}/{cases}")
    return problems


class VerifyExhaustive:
    """The paper's headline check, run through the CLI in-process.

    A request is ``revlogic bcd verify --digits 2``: 20 000 cases, each an
    encode, simulate, decode and oracle call. The circuit is rebuilt by
    every request, as the CLI does.
    """

    name = "verify-exhaustive"
    traced_requests = 2
    digits = 2
    cases = bcd_cases(digits)

    def generate(self, seed: int):
        return None

    def setup(self, inputs):
        circuit = designs.build_bcd_adder_n(self.digits)
        circuit.simulate(designs.encode_bcd_operands(0, 0, 0, self.digits))
        return None

    def request(self, state, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["bcd", "verify", "--digits", str(self.digits)])
        text = out.getvalue()
        ok = code == 0 and f"{self.cases}/{self.cases} cases pass" in text.splitlines()
        return ok, self.cases, text


class SimSampled:
    """Seeded random additions on the warm 4-digit adder, one word at a time.

    A request is 64 ``(a, b, cin)`` additions, each encode, simulate and
    decode, compared with ``oracle_bcd_add_number`` and with Python's own
    decimal arithmetic. The adder has 33 inputs, above
    ``ENUMERATION_LIMIT``, so single-word simulation is the only path.
    """

    name = "sim-sampled"
    traced_requests = 200
    digits = 4
    words_per_request = 64
    pool_requests = 64

    def generate(self, seed: int):
        rng = _rng(self.name, seed)
        limit = 10**self.digits
        return [(rng.randrange(limit), rng.randrange(limit), rng.getrandbits(1))
                for _ in range(self.words_per_request * self.pool_requests)]

    def setup(self, inputs, circuit=None):
        circuit = circuit or designs.build_bcd_adder_n(self.digits)
        circuit.simulate(designs.encode_bcd_operands(0, 0, 0, self.digits))
        return circuit, inputs

    def request(self, state, i: int):
        circuit, operands = state
        n, digits = self.words_per_request, self.digits
        start = (i % self.pool_requests) * n
        limit = 10**digits
        ok = True
        results = []
        for a, b, cin in operands[start : start + n]:
            outputs, _ = circuit.simulate(designs.encode_bcd_operands(a, b, cin, digits))
            got = designs.decode_bcd_result(outputs, digits)
            want = designs.oracle_bcd_add_number(a, b, cin, digits)
            ok = ok and got == want == divmod(a + b + cin, limit)
            results.append(got)
        return ok, n, repr(results)


@dataclass(frozen=True)
class Plan:
    """A circuit as pure data: catalog gates acting in place on numbered lines.

    Lines ``0..len(input_labels)-1`` are the primary inputs, the rest the
    constants. A gate's output pin k stays on the line of its input pin k.
    ``outputs`` lists ``(line, label)`` and ``garbage`` lists lines, both
    in marking order. ``words`` are input words to compare under
    ``simulate``; ``delay`` is the longest gate chain on any line.
    """

    input_labels: tuple[str, ...]
    constants: tuple[int, ...]
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    outputs: tuple[tuple[int, str], ...]
    garbage: tuple[int, ...]
    words: tuple[int, ...]
    delay: int


def _line_delay(n_lines: int, placed) -> int:
    depth = [0] * n_lines
    for _, picks in placed:
        level = 1 + max(depth[k] for k in picks)
        for k in picks:
            depth[k] = level
    return max(depth)


def _sample_words(rng: random.Random, width: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(width) for _ in range(RoundTrip.sampled_words))


def random_plan(rng: random.Random, n_lines: int, n_gates: int, input_share: float) -> Plan:
    """A random plan on ``n_lines`` lines with ``n_gates`` catalog gates,
    ``input_share`` (in [0, 1)) of whose lines, and at least one, are inputs."""
    n_inputs = 1 + int(input_share * n_lines)
    labels = tuple(f"x{k}" for k in range(n_inputs))
    constants = tuple(rng.getrandbits(1) for _ in range(n_lines - n_inputs))
    names = sorted(GATE_ARITY)
    placed = tuple((name, tuple(rng.sample(range(n_lines), GATE_ARITY[name])))
                   for name in rng.choices(names, k=n_gates))
    touched = {k for _, picks in placed for k in picks}
    order = rng.sample(range(n_lines), n_lines)
    n_out = rng.randint(1, n_lines)
    # An input line no gate touched still carries the input itself, and
    # the text format can only name it by the input's own label.
    outputs = tuple(
        (k, labels[k] if k < n_inputs and k not in touched else f"y{j}")
        for j, k in enumerate(order[:n_out])
    )
    return Plan(labels, constants, placed, outputs, tuple(order[n_out:]),
                _sample_words(rng, n_inputs), _line_delay(n_lines, placed))


def plan_from_circuit(circuit, words: tuple[int, ...] = ()) -> Plan:
    """The line-form plan of a sealed circuit; ``build`` replays it exactly."""
    line = {("in", i): i for i in range(circuit.width)}
    line.update({("const", j): circuit.width + j for j in range(len(circuit.constants))})
    placed = []
    for idx, inst in enumerate(circuit.instances):
        picks = tuple(line[s] for s in inst.sources)
        placed.append((inst.gate.name, picks))
        line.update({("gate", idx, pin): k for pin, k in enumerate(picks)})
    n_lines = circuit.width + len(circuit.constants)
    return Plan(circuit.input_labels, circuit.constants, tuple(placed),
                tuple((line[s], label) for label, s in circuit.outputs),
                tuple(line[s] for s in circuit.garbage), words,
                _line_delay(n_lines, placed))


def build(plan: Plan, catalog):
    """Build and seal a plan's circuit through the public builder."""
    builder = netlist.new_circuit(plan.input_labels)
    lines = list(builder.inputs)
    lines.extend(builder.add_constant(bit) for bit in plan.constants)
    for name, picks in plan.gates:
        outs = builder.add_gate(catalog[name], [lines[k] for k in picks])
        for k, wire in zip(picks, outs):
            lines[k] = wire
    for k, label in plan.outputs:
        builder.mark_output(lines[k], label)
    for k in plan.garbage:
        builder.mark_garbage(lines[k])
    return builder.seal()


def plan_shapes(n: int) -> list[tuple[int, int, float]]:
    """``n`` plan shapes ``(lines, gates, input_share)``, log-uniform in 4-64
    lines and 8-1000 gates and uniform in share, spread evenly over that
    space by Roberts' R3 sequence. They are the same for every seed, so the
    cost mix of a run is too, and the seed changes only the circuits."""
    g = 1.2207440846057596  # the root of x**4 = x + 1 above 1
    shapes = []
    for i in range(n):
        u_lines, u_gates, share = ((0.5 + i / g**j) % 1 for j in (1, 2, 3))
        shapes.append((round(4 * 16**u_lines), round(8 * 125**u_gates), share))
    return shapes


class RoundTrip:
    """Build, emit, parse, elaborate and compare: the write side.

    The benchmark cycles through a fixed, seeded list of plans: random
    circuits of 8-1000 gates on 4-64 lines in the shapes of
    ``plan_shapes``, plus every shipped design. A request builds one plan, round-trips it through the
    text format, and checks that the copy has the original's metrics and
    simulates like it, on 16 seeded words and, up to 6 inputs, on the full
    mapping. A request is one circuit.
    """

    name = "netlist-roundtrip"
    random_plans = 240
    sampled_words = 16
    mapping_width = 6
    # build_correction_stage is left out: its outputs reuse its input
    # labels, which the text format cannot express (emit_netlist says so).
    shipped = (
        ("build_full_adder", ()),
        ("build_ripple_adder4", ()),
        ("build_bcd_adder_digit", ()),
        ("build_bcd_adder_n", (2,)),
        ("build_bcd_adder_n", (3,)),
        ("build_bcd_adder_n", (4,)),
    )

    @property
    def traced_requests(self) -> int:
        return self.random_plans + len(self.shipped)

    def generate(self, seed: int):
        rng = _rng(self.name, seed)
        return rng, [random_plan(rng, *shape) for shape in plan_shapes(self.random_plans)]

    def setup(self, inputs):
        rng, plans = inputs
        for builder_name, args in self.shipped:
            design = getattr(designs, builder_name)(*args)
            plans.append(plan_from_circuit(design, _sample_words(rng, design.width)))
        rng.shuffle(plans)
        catalog = gates.catalog_by_name()
        build(plans[0], catalog).simulate(gates.BitWord.from_int(0, len(plans[0].input_labels)))
        return plans, catalog

    def request(self, state, i: int):
        plans, catalog = state
        plan = plans[i % len(plans)]
        original = build(plan, catalog)
        text = netlist_text.emit_netlist(original)
        copy = netlist_text.elaborate(netlist_text.parse_netlist(text))
        report = metrics.analyze(original)
        # The plan itself is the oracle for the counts and the delay; the
        # original circuit is the oracle for everything else.
        checks = [
            metrics.analyze(copy) == report,
            (report.gate_count, report.garbage_count, report.constant_count,
             report.delay_levels)
            == (len(plan.gates), len(plan.garbage), len(plan.constants), plan.delay),
            copy.input_labels == original.input_labels,
            copy.output_labels == original.output_labels,
        ]
        width = original.width
        for value in plan.words:
            word = gates.BitWord.from_int(value, width)
            checks.append(copy.simulate(word) == original.simulate(word))
        if width <= self.mapping_width:
            checks.append(copy.mapping() == original.mapping())
        return all(checks), 1, f"{text}{report}"


WORKLOADS = {w.name: w for w in (VerifyExhaustive(), SimSampled(), RoundTrip())}
