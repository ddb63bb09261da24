import ast
import hashlib
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import stabcorrect
from stabcorrect.ledger import CostLedger
from stabcorrect.rng import RngStream


class TestRngStream:
    def test_same_address_same_draws(self):
        a = RngStream(42).child("exp", 3).generator()
        b = RngStream(42).child("exp", 3).generator()
        assert np.array_equal(a.random(16), b.random(16))

    def test_different_paths_differ(self):
        a = RngStream(42).child("exp", 3).generator()
        b = RngStream(42).child("exp", 4).generator()
        assert not np.array_equal(a.random(16), b.random(16))

    def test_string_keys_stable(self):
        # sha256-based keys, not the salted builtin hash
        a = RngStream(1).child("alpha")
        b = RngStream(1).child("alpha")
        assert a == b and a.path == b.path

    def test_nested_children(self):
        s = RngStream(7).child("a").child(2, "b")
        assert len(s.path) == 3

    @pytest.mark.parametrize("part", [2**32 + 5, 2**32, -1])
    def test_integer_part_outside_32_bits_rejected(self, part):
        # masking would alias child(2**32 + 5) with child(5)
        with pytest.raises(ValueError, match=rf"part {part} outside"):
            RngStream(1).child(part)

    def test_in_range_integer_keys_unchanged(self):
        assert RngStream(1).child(0, 5, 2**32 - 1).path == (0, 5, 2**32 - 1)

    def test_int_and_string_parts_differ(self):
        # untagged keys mapped a string part to the first 4 bytes of its
        # sha256 as an int, the key of that int part too
        old_key = int.from_bytes(hashlib.sha256(b"alpha").digest()[:4], "little")
        a = RngStream(1).child("alpha").generator().random(4)
        b = RngStream(1).child(old_key).generator().random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("path", [(5,), ("x",), (5, 1), ("x", 0), (0, 2**32 - 1, "trial")])
    def test_each_part_is_three_words(self, path):
        # numpy splits a spawn-key entry of 2^32 or more into 32-bit words,
        # so variable-width keys alias (2**32 + 5,) with (5, 1); three words
        # per part keep a path of one part apart from a path of two
        key = RngStream(1).child(*path).generator().bit_generator.seed_seq.spawn_key
        assert len(key) == 3 * len(path) and all(0 <= w < 2**32 for w in key)
        one = RngStream(1).child(path[0]).generator().random(4)
        assert not np.array_equal(one, RngStream(1).child(path[0], 0).generator().random(4))

    def test_part_of_another_type_rejected(self):
        with pytest.raises(TypeError, match="neither an int nor a str"):
            RngStream(1).child(1.0)

    def test_generator_is_pinned(self):
        # seeded output depends on the bit generator and the key encoding:
        # a change to either must show here
        g = RngStream(1).child("trial", 0).generator()
        assert type(g.bit_generator) is np.random.PCG64DXSM
        assert g.random() == 0.46608691356944665


class TestCostLedger:
    def test_totals_equal_breakdown_sums(self):
        led = CostLedger()
        led.charge("x", copies=3, gates=2)
        led.charge("y", copies=5, queries_conU=1)
        led.charge("x", copies=1)
        totals = led.totals
        sums = {k: 0 for k in totals}
        for row in led.breakdown.values():
            for k in sums:
                sums[k] += row[k]
        assert totals == sums
        assert totals["copies_consumed"] == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("x", copies=-1)


def test_no_assert_statements_in_package():
    # invariant checks must raise explicitly so they survive python -O
    found = []
    for path in sorted(Path(stabcorrect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_package_reads_no_environment():
    # configuration arrives through arguments and config files only
    found = []
    for path in sorted(Path(stabcorrect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for a in node.names
                          if a.name in ("environ", "getenv")]
    assert not found, f"environment reads in the package: {found}"


def test_package_imports_only_at_module_top():
    # a function-level import hides a module's dependencies from its header
    found = set()
    for path in sorted(Path(stabcorrect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                }
    assert not found, f"function-level imports in the package: {sorted(found)}"


# Public functions, classes, methods and properties that nothing in the
# package reads: the paper's applications that open ROADMAP items give a
# caller (mimicking-state comparison, high-stabilizer-dimension extraction).
# A new entry fails here; move a test-only helper into the tests, or fold it
# into the path that runs.
UNCALLED_PUBLIC_API = {
    "iterate.MimicReport.all_within_bounds",
    "iterate.mimic_compare",
    "selfcorrect.HighStabDimResult.reconstruct",
    "selfcorrect.find_high_stab_dim",
}

# Defaulted parameters of top-level public functions that no call in the
# package passes, by keyword or by position.  A new entry fails here: an
# option nothing sets becomes a constant, or its caller is added with it.
UNSET_PUBLIC_OPTIONS = {
    "cli.main.argv",
    "iterate.iterate_robust.estimator",
    "selfcorrect.self_correct.collect_t",  # acceptance criterion 8 sets it
}

# Every defaulted parameter of a top-level public function.  A new knob fails
# here until it is added on purpose.
PUBLIC_OPTIONS = {
    "cli.main.argv",
    "iterate.base_learner_self_correct.attempts",
    "iterate.iterate_robust.estimator",
    "iterate.iterate_robust.t",
    "selfcorrect.self_correct.attempts",
    "selfcorrect.self_correct.collect_t",
    "selfcorrect.tolerant_test.separation_c",
}

# Every function, private and nested ones included, that takes a ``ledger``.
# A call that charges takes one, and none may omit it: an exact entry point
# that charges nothing takes no ledger at all.
LEDGER_REQUIRED = {
    "iterate._iterate",
    "iterate.iterate_error_free",
    "iterate.iterate_robust",
    "iterate.learn",  # the base learners' closures
    "iterate.learn_low_extent",
    "selfcorrect._edge_batch",
    "selfcorrect._membership_rows",
    "selfcorrect._neighbor_bad",
    "selfcorrect.collect_small_doubling",
    "selfcorrect.find_high_stab_dim",
    "selfcorrect.find_stabilizer",
    "selfcorrect.sampled_tolerant_test",
    "selfcorrect.self_correct",
    "statevec.apply_circuit",
    "statevec.hadamard_test_estimate",
    "statevec.lcu_residual",
    "statevec.sample_retained",
    "statevec.sampled_gowers3_metrics",
    "statevec.sampled_proxy",
}


def _package_trees():
    for path in sorted(Path(stabcorrect.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_static(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def test_uncalled_public_functions_are_pinned():
    # a top-level public def or class, or a public method or property of a
    # public class, counts as called when any name or attribute in the
    # package refers to its bare name; a public static method only when
    # ``Class.method`` appears, since same-named members elsewhere would
    # otherwise stand in for its caller
    defined, referenced = {}, set()
    for stem, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    defined.update({
                        f"{stem}.{node.name}.{member.name}":
                            f"{node.name}.{member.name}" if _is_static(member) else member.name
                        for member in node.body
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                    })
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.value, ast.Name):
                    referenced.add(f"{node.value.id}.{node.attr}")
    uncalled = {qualified for qualified, name in defined.items() if name not in referenced}
    assert uncalled == UNCALLED_PUBLIC_API


def _defaulted(node: ast.FunctionDef) -> dict[str, int | None]:
    """Defaulted parameters of a def, each with its position (None when
    keyword-only)."""
    args = node.args
    params = args.posonlyargs + args.args
    opts = {a.arg: params.index(a) for a in params[len(params) - len(args.defaults):]}
    opts.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return opts


def _public_options() -> dict[str, dict[str, int | None]]:
    return {
        f"{stem}.{node.name}": _defaulted(node)
        for stem, tree in _package_trees() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_public_options_are_pinned():
    options = {f"{name}.{arg}" for name, opts in _public_options().items() for arg in opts}
    assert options == PUBLIC_OPTIONS


def test_no_function_defaults_its_ledger_or_rng():
    # a defaulted ledger or rng marks a function with a second path that
    # reads neither; such a path is a function of its own, so every function
    # that takes a ledger or rng needs it
    defaulted, takes_ledger = set(), set()
    for stem, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                defaulted |= {
                    f"{stem}.{node.name}.{arg}" for arg in _defaulted(node) if arg in ("ledger", "rng")
                }
                if any(a.arg == "ledger" for a in params):
                    takes_ledger.add(f"{stem}.{node.name}")
    assert not defaulted, f"defaulted ledger or rng parameters: {sorted(defaulted)}"
    assert takes_ledger == LEDGER_REQUIRED


def test_no_uncharged_ledger_branch_in_package():
    # a charge guarded by ``ledger is not None`` silently drops the cost
    found = []
    for stem, tree in _package_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "ledger"
                and any(isinstance(op, ast.IsNot) for op in node.ops)
            ):
                found.append(f"{stem}.py:{node.lineno}")
    assert not found, f"ledger is not None checks in the package: {found}"


def test_unset_public_options_are_pinned():
    # calls match a function by its bare name, so a same-named method or
    # function elsewhere counts as a caller too
    options = _public_options()
    positional: dict[str, int] = {}
    keywords: dict[str, set] = {}
    for stem, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := _called_name(node)):
                positional[name] = max(positional.get(name, 0), len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    unset = set()
    for qualified, opts in options.items():
        name = qualified.split(".")[1]
        for arg, index in opts.items():
            by_position = index is not None and index < positional.get(name, 0)
            if not by_position and arg not in keywords.get(name, set()):
                unset.add(f"{qualified}.{arg}")
    assert unset == UNSET_PUBLIC_OPTIONS


def test_only_gen_state_names_the_ground_truth():
    # the known groups are written by gen_state for the record and its
    # checks; no pipeline stage reads them
    found = []
    for stem, tree in _package_trees():
        writer = next(
            (node for node in tree.body if stem == "harness"
             and isinstance(node, ast.FunctionDef) and node.name == "gen_state"),
            None,
        )
        inside = {id(node) for node in ast.walk(writer)} if writer else set()
        found += [
            f"{stem}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("stabilizer_group", "plant_groups")
            and id(node) not in inside
        ]
    assert not found, f"ground-truth keys outside harness.gen_state: {found}"


def test_readme_dotted_names_resolve():
    # every backticked ``module.name`` or ``Class.member`` in the README is a
    # live attribute of the package, so renaming or removing one fails here
    modules = {
        stem: importlib.import_module(f"stabcorrect.{stem}")
        for stem, _ in _package_trees() if not stem.startswith("_")
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme)))
    assert names
    stale = []
    for name in names:
        head, *rest = name.split(".")
        owner = modules.get(head) or next((vars(m)[head] for m in modules.values() if head in vars(m)), None)
        for part in rest:
            owner = getattr(owner, part, None)
        if owner is None:
            stale.append(name)
    assert not stale, f"README names no live attribute: {stale}"
