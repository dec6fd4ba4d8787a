"""Source hygiene: no followrl module imports a name it never uses, every
module-level function and class and every method is named by the program
or the acceptance tests, every config field is read by the code it
configures, every command-line option is read by its command, no module
names np.dot, only evaluate generates leader profiles, and the 0-d
operands of nets, simcore and ddpg cannot be changed in place."""

import argparse
import ast
import inspect
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from followrl import cli, ddpg, nets, simcore

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "followrl"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a definition may be named: the package and perfbench.  A name
# only the unit tests read is a feature nothing calls; one the acceptance
# tests read is part of the lab's interface
READERS = sorted(p for d in ("src", "perfbench")
                 for p in (ROOT / d).rglob("*.py") if p != SRC / "__init__.py")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def unused_imports(source):
    """Names bound by the module's import statements that no other
    expression in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(node):
    """Every Name and attribute name read anywhere under node."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def definitions(tree):
    """Each module-level function or class of the parsed module, and each
    method of its classes but the dunders, which Python calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def unreferenced_definitions(modules, readers, exempt=frozenset()):
    """(module, line, name) of each definition in ``modules`` (file name ->
    source) not in ``exempt`` that no source in ``readers`` names outside
    the definition itself."""
    counts = Counter(name for source in readers
                     for name in names_read(ast.parse(source)))
    out = []
    for module, source in modules.items():
        for node in definitions(ast.parse(source)):
            own = names_read(node).count(node.name)
            if node.name not in exempt and counts[node.name] <= own:
                out.append((module, node.lineno, node.name))
    return out


def test_checker_finds_an_unreferenced_definition():
    module = ("def used():\n    pass\n\n\ndef recursive(n):\n"
              "    return recursive(n - 1)\n\n\nclass Orphan:\n    pass\n\n\n"
              "class Kept:\n    def __len__(self):\n        return 0\n\n"
              "    def called(self):\n        return self.idle\n\n"
              "    def idle(self):\n        pass\n\n"
              "    def tested(self):\n        pass\n")
    caller = "from m import used, Orphan\nused()\nKept().called()\n"
    assert unreferenced_definitions({"m.py": module}, [module, caller],
                                    exempt={"tested"}) == [
        ("m.py", 5, "recursive"), ("m.py", 9, "Orphan")]
    assert unreferenced_definitions({"m.py": module}, [module]) == [
        ("m.py", 1, "used"), ("m.py", 5, "recursive"), ("m.py", 9, "Orphan"),
        ("m.py", 13, "Kept"), ("m.py", 17, "called"), ("m.py", 23, "tested")]


def test_every_definition_named_elsewhere():
    modules = {p.name: p.read_text() for p in MODULES}
    exempt = set(names_read(ast.parse(ACCEPTANCE.read_text())))
    assert unreferenced_definitions(
        modules, [p.read_text() for p in READERS], exempt) == []


def unread_fields(config_source, readers):
    """(class, field) of each field of a dataclass in config_source that no
    source in ``readers`` reads as an attribute.  Names are matched alone,
    so a same-named attribute of another object also counts as a read."""
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(node.name, stmt.target.id)
            for node in ast.parse(config_source).body
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in names_read(d) for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]


def test_checker_finds_an_unread_field():
    config = ("@dataclass\nclass Cfg:\n    used: int = 1\n    set_only: int = 2\n"
              "    unread: bool = True\n\n    def __post_init__(self):\n"
              "        assert self.unread\n\n\nclass Plain:\n    other: int = 0\n")
    user = "def f(cfg):\n    cfg.set_only = cfg.used\n    return replace(cfg, unread=False)\n"
    assert unread_fields(config, [user]) == [("Cfg", "set_only"), ("Cfg", "unread")]


def test_every_config_field_read():
    # config.py's own checks do not count: a field only they read
    # configures nothing
    assert unread_fields((SRC / "config.py").read_text(),
                         [p.read_text() for p in MODULES
                          if p.name != "config.py"]) == []


def leaf_parsers(parser):
    """Each subparser under parser, at any depth, that has none of its own,
    or parser itself when it has none."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for sp in action.choices.values():
            yield from leaf_parsers(sp)


def unread_options(parser):
    """(prog, option) of each option of each leaf subparser, --config
    aside, that the leaf's handler (its fn default) never reads as
    args.<dest>."""
    out = []
    for sp in leaf_parsers(parser):
        source = textwrap.dedent(inspect.getsource(sp.get_default("fn")))
        read = {n.attr for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "args"}
        out += [(sp.prog, (a.option_strings or [a.dest])[0])
                for a in sp._actions if a.dest not in read | {"help", "config"}]
    return out


def toy_handler(args, cfg):
    return args.used


def test_checker_finds_an_unread_option():
    p = argparse.ArgumentParser(prog="toy")
    sub = p.add_subparsers()
    sp = sub.add_parser("run")
    sp.set_defaults(fn=toy_handler)
    for flag in ("--config", "--used", "--unread"):
        sp.add_argument(flag)
    leaf = sub.add_parser("group").add_subparsers().add_parser("leaf")
    leaf.set_defaults(fn=toy_handler)
    leaf.add_argument("--used")
    assert unread_options(p) == [("toy run", "--unread")]


def test_every_cli_option_read():
    # an option its command ignores changes no result, and accepting it
    # silently hides the mistake (control probe once took --duration-s)
    parser = cli.build_parser()
    assert len(list(leaf_parsers(parser))) == 10
    assert unread_options(parser) == []


def numpy_dot_uses(source):
    """Lines naming numpy's dot function, ``np.dot`` or ``numpy.dot``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "dot"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy"))


def test_checker_finds_numpy_dot():
    source = ("import numpy as np\nz = np.dot(a, b)\nf = np.dot\n"
              "g = np.ndarray.dot\nw = a.dot(b)\n")
    assert numpy_dot_uses(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_dot(path):
    # np.dot's __array_function__ dispatch is a sizeable share of a
    # product's cost at the nets' sizes; MlpNet._product is the one entry
    # point for products
    assert numpy_dot_uses(path.read_text()) == []


def calls_of(source, name):
    """Lines calling ``name``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def test_checker_finds_a_call():
    source = "from m import f\nf(1)\nm.f(2)\ng = f\nh(f)\nm.f\n"
    assert calls_of(source, "f") == [2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "evaluate.py"],
                         ids=lambda p: p.name)
def test_only_evaluate_generates_leader_profiles(path):
    # evaluate draws every generated scenario, so the seed and initial-gap
    # rules of training, the eval suite and the stand-in human data sit in
    # one module
    assert calls_of(path.read_text(), "gen_leader_profile") == []


def arrays_of(namespace):
    return {name: value for name, value in vars(namespace).items()
            if isinstance(value, np.ndarray)}


def assert_read_only_0d(operands):
    # numpy takes a 0-d array operand as it is, where a Python float is
    # converted on every call.  One shared by every call must not be
    # writeable, so that a stray out= raises instead of changing it
    for name, a in operands.items():
        assert a.shape == () and a.dtype == np.float64, name
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            np.add(a, a, out=a)


def test_nets_operands_read_only_0d():
    operands = arrays_of(nets)
    assert {"ZERO", "ONE", "TWO", "_B1", "_B2", "_1_B1", "_1_B2",
            "_EPS"} <= operands.keys()
    keep, tau = nets._polyak_operands(0.005)
    assert (keep, tau) == (1.0 - 0.005, 0.005)
    assert nets._polyak_operands(0.005)[0] is keep      # made once
    lr = nets.AdamState(nets.MlpNet([3, 8, 1], "linear", seed=1), lr=3e-4).lr
    assert lr == 3e-4
    assert_read_only_0d({**operands, "1 - tau": keep, "tau": tau,
                         "AdamState.lr": lr})


def test_unscale_operands_read_only_0d():
    a_min, span = simcore._unscale_operands(-5.0, 3.0)
    assert (a_min, span) == (-5.0, 8.0)
    assert simcore._unscale_operands(-5.0, 3.0)[0] is a_min   # made once
    assert_read_only_0d({"a_min": a_min, "a_max - a_min": span})


def test_ddpg_operands_read_only_0d():
    # the module's and those made per batch size and gamma; the
    # batch-mean gradient is (n, 1) and read-only too.  The agent keeps no
    # operand of its own: train_step builds them from cfg when it runs
    agent = ddpg.DdpgAgent(seed=0)
    assert arrays_of(agent) == {}
    module = arrays_of(ddpg)
    assert "_PREACT_GRAD" in module
    n, gamma, mean_grad = ddpg._step_operands(7, 0.99)
    assert (n, gamma) == (7, 0.99)
    assert ddpg._step_operands(7, 0.99)[2] is mean_grad
    assert_read_only_0d({**module, "n": n, "gamma": gamma})
    assert mean_grad.shape == (7, 1) and mean_grad.dtype == np.float64
    assert (mean_grad == 1.0 / 7).all() and not mean_grad.flags.writeable


@pytest.mark.parametrize("lr", [3e-4, 0.1])
def test_adam_lr_setting_is_the_step_lr(lr):
    # opt_step reads a 0-d copy of AdamState.lr: setting lr mid-run must
    # step exactly as a fresh state with that lr and the same moments
    rng = np.random.default_rng(4)
    net = nets.MlpNet([3, 8, 1], "linear", seed=1)
    grads = [{"flat": rng.standard_normal(net.flat.shape)} for _ in range(10)]
    state = nets.AdamState(net, lr=1e-3)
    for g in grads[:5]:
        nets.opt_step(net, g, state)
    state.lr = lr
    assert state.lr == lr
    fresh_net = net.copy()
    fresh = nets.AdamState(fresh_net, lr=lr)
    fresh.t, fresh.m[...], fresh.v[...] = state.t, state.m, state.v
    for g in grads[5:]:
        nets.opt_step(net, g, state)
        nets.opt_step(fresh_net, g, fresh)
        assert net.flat.tobytes() == fresh_net.flat.tobytes()
