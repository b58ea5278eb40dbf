"""Rules on the library's source, checked on its syntax trees.

Each rule takes a module's file name and parsed tree and returns the line
numbers that break it; :func:`violations` walks every module under
``src/trapnoise`` with it.  Each rule also gets a source string with one
planted violation, so a rule that stops seeing anything fails too.
"""

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trapnoise"


def broad_excepts(name: str, tree: ast.AST) -> list[int]:
    """A bare ``except:``, ``except Exception`` or ``except BaseException``,
    alone or in a tuple."""
    broad = {"Exception", "BaseException"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(getattr(t, "id", None) in broad for t in types):
            lines.append(node.lineno)
    return lines


def _sign_tests(node):
    """The ``<``/``<=`` comparisons against a float literal in ``node`` that
    no ``not`` encloses: NaN fails each of them, so NaN passes a guard that
    raises on them.  Such checks go through constants.require_above or read
    ``if not x > lo:``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return
    if (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
            and any(isinstance(e, ast.Constant) and isinstance(e.value, float)
                    for e in (node.left, *node.comparators))):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _sign_tests(child)


def nan_unsafe_sign_checks(name: str, tree: ast.AST) -> list[int]:
    """An ``if`` whose body is a single ``raise`` and whose test holds a
    NaN-unsafe sign comparison."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise) and any(_sign_tests(node.test))
    ]


def covariance_reads(name: str, tree: ast.AST) -> list[int]:
    """A ``.covariance`` read outside ``leastsq``: inference._natural_fit maps
    every fit's errors to natural units through FitResult.errors(), and a
    read elsewhere starts a second copy of the delta method."""
    if name == "leastsq.py":
        return []
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "covariance"
    ]


def cli_conversions(name: str, tree: ast.AST) -> list[int]:
    """``cli.py`` importing or calling a heating-rate converter or
    ``dataclasses.replace``: HeatingDataset, jnn_budget and
    LayerStack.with_london_depth do those conversions."""
    if name != "cli.py":
        return []
    converters = {"heating_rate_from_noise", "noise_from_heating_rate"}
    # the names `import dataclasses [as x]` binds
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "dataclasses"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if a.name in converters
                     or (node.module == "dataclasses" and a.name == "replace")]
        elif isinstance(node, ast.Call):
            f = node.func
            called = getattr(f, "id", None) or getattr(f, "attr", None)
            on_module = isinstance(f, ast.Name) or getattr(f.value, "id", None) in modules
            names = [called] if called in converters or (
                called == "replace" and on_module) else []
        else:
            continue
        lines += [node.lineno] * len(names)
    return lines


def fit_engine_bypasses(name: str, tree: ast.AST) -> list[int]:
    """A use of ``levenberg_marquardt`` outside ``inference._fit``, the one
    fitting path: a second caller would start a second copy of its start
    loop and residual weighting."""
    engine = set()
    if name == "inference.py":
        engine = {id(node) for top in tree.body
                  if isinstance(top, ast.FunctionDef) and top.name == "_fit"
                  for node in ast.walk(top)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in engine and "levenberg_marquardt"
        in (getattr(node, "id", None), getattr(node, "attr", None))
    ]


def cli_file_choices(name: str, tree: ast.AST) -> list[int]:
    """``cli.py`` naming ``packaged_config``, ``config_roles`` or a per-role
    config loader: configio.load_configs and load_synth_params choose and
    load every config file a command reads."""
    if name != "cli.py":
        return []
    chooser = {"packaged_config", "config_roles", "load_materials", "load_stack",
               "load_circuit", "load_scene", "load_temp_params", "load_surface_params"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if any(getattr(node, key, None) in chooser for key in ("id", "attr", "name"))
    ]


def temperature_before_omega(name: str, tree: ast.AST) -> list[int]:
    """A function or method with parameters ``omega`` and ``temperature``
    that lists ``temperature`` first: every evaluation at (omega, T) takes
    omega first, so a call never swaps them silently."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            if ("omega" in params and "temperature" in params
                    and params.index("temperature") < params.index("omega")):
                lines.append(node.lineno)
    return lines


def fits_off_the_model_table(name: str, tree: ast.AST) -> list[int]:
    """In ``inference.py``, a ``_fit(...)`` whose first argument is not a
    plain name, or names a function (not a method) or lambda the module
    defines, and a ``Model(...)`` built inside a function: each fitted
    formula is one module-level row, and ``_fit`` builds the only residual
    from it."""
    if name != "inference.py":
        return []
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    callables = {node.name for node in ast.walk(tree) if id(node) not in methods
                 and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    callables |= {target.id for node in ast.walk(tree)
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
                  for target in node.targets if isinstance(target, ast.Name)}
    nested = {id(node) for scope in ast.walk(tree) if isinstance(scope, scopes)
              for node in ast.walk(scope) if node is not scope}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if called == "_fit":
            first = node.args[0] if node.args else None
            if not isinstance(first, ast.Name) or first.id in callables:
                lines.append(node.lineno)
        elif called == "Model" and id(node) in nested:
            lines.append(node.lineno)
    return sorted(lines)


def points_read_off_the_helper(name: str, tree: ast.AST) -> list[int]:
    """In ``inference.py``, a read of a function's ``points`` or ``curve``
    parameter other than as the first argument of ``_checked_points``: that
    helper converts, checks and sorts every analysis's (x, y, sigma) points,
    and a second reader would build its columns by a rule of its own."""
    if name != "inference.py":
        return []
    lines = []
    for func in ast.walk(tree):
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or func.name == "_checked_points"):
            continue
        a = func.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        read = params & {"points", "curve"}
        passed = {id(node.args[0]) for node in ast.walk(func)
                  if isinstance(node, ast.Call) and node.args
                  and getattr(node.func, "id", None) == "_checked_points"}
        lines += [node.lineno for node in ast.walk(func)
                  if isinstance(node, ast.Name) and node.id in read
                  and id(node) not in passed]
    return sorted(lines)


RULES = [broad_excepts, nan_unsafe_sign_checks, covariance_reads, cli_conversions,
         fit_engine_bypasses, cli_file_choices, temperature_before_omega,
         fits_off_the_model_table, points_read_off_the_helper]


def violations(rule, sources: dict[str, str]) -> list[str]:
    """``path:line`` of each break of ``rule`` in ``sources``, a map of file
    path to source text."""
    return [
        f"{path}:{line}"
        for path, text in sources.items()
        for line in rule(Path(path).name, ast.parse(text, path))
    ]


@pytest.mark.parametrize("rule", RULES, ids=[r.__name__ for r in RULES])
def test_library_keeps_the_rule(rule):
    sources = {str(p): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert "cli.py" in {Path(p).name for p in sources}
    assert violations(rule, sources) == []


# (rule, file name, source); the line marked `# planted`, if any, is the one
# violation the rule must report, and a source without the mark must pass
_PLANTED = [
    (broad_excepts, "noise.py", """
        try:
            pass
        except (KeyError, ValueError):
            pass
        try:
            pass
        except (KeyError, Exception):  # planted
            pass
    """),
    (broad_excepts, "noise.py", """
        try:
            pass
        except:  # planted
            pass
    """),
    (nan_unsafe_sign_checks, "layers.py", """
        if not x > 0.0:
            raise ValueError(x)
        if n < 1:
            raise ValueError(n)
        if x < 0.0 or y > 1.0:
            x = 0.0
        if y > 1.0 or x <= 0.0:  # planted
            raise ValueError(x)
    """),
    (covariance_reads, "inference.py", """
        errors = fit.errors()
        c = fit.covariance  # planted
    """),
    (covariance_reads, "leastsq.py", """
        c = fit.covariance
    """),
    (cli_conversions, "cli.py", """
        import dataclasses as dc
        from .constants import omega_from_hz
        omega = omega_from_hz(1.0)
        args = args._replace(out=None)
        stack = dc.replace(stack, layers=())  # planted
    """),
    (cli_conversions, "cli.py", """
        from .constants import heating_rate_from_noise  # planted
    """),
    (cli_conversions, "noise.py", """
        from .constants import heating_rate_from_noise
    """),
    (fit_engine_bypasses, "inference.py", """
        from .leastsq import levenberg_marquardt
        def _fit(residual, theta0):
            return levenberg_marquardt(residual, theta0)
        def fit_freq_power_law(residual, theta0):
            return levenberg_marquardt(residual, theta0)  # planted
    """),
    (fit_engine_bypasses, "noise.py", """
        from . import leastsq
        lm = leastsq.levenberg_marquardt  # planted
    """),
    (cli_file_choices, "cli.py", """
        from .configio import load_configs, load_synth_params
        inputs, configs = load_configs(args.config, ("materials", "stack"))
        stack = configs["stack"]
        from .configio import load_stack  # planted
        path = configio.packaged_config("synth", "temp-simple")  # planted
        roles = config_roles(path)  # planted
    """),
    (cli_file_choices, "configio.py", """
        def load_configs(paths, needed):
            return load_stack(packaged_config("stacks", "sapphire-ybco"), {})
    """),
    (temperature_before_omega, "materials.py", """
        def permittivity(self, omega, temperature):
            return 1.0
        def lookup(self, temperature):
            return 1.0
        def skin_depth(rho, omega):
            return rho
        def sheet_resistance(self, temperature, omega):  # planted
            return 0.0
        async def fetch(temperature, *, omega=1.0):  # planted
            return 0.0
        f = lambda temperature, omega: 0.0  # planted
    """),
    (fits_off_the_model_table, "inference.py", """
        ROWS = {"one": Model(lambda t, a: a * t, ("a",), (True,))}
        class Params:
            @property
            def model(self):
                return ROWS["one"]
        def fit_one(x, y, sigma):
            model = ROWS["one"]
            return _fit(model, x, y, sigma, [[0.0]])
        def fit_two(x, y, sigma):
            row = Model(lambda t, a: a + t, ("a",), (False,))  # planted
            _fit(lambda theta: theta[0] * x, x, y, sigma, [[0.0]])  # planted
            def predict(theta):
                return theta[0] * x
            _fit(predict, x, y, sigma, [[0.0]])  # planted
            return _fit(ROWS["one"], x, y, sigma, [[0.0]])  # planted
    """),
    (fits_off_the_model_table, "inference.py", """
        residual = lambda theta: theta
        _fit(residual, x, y, sigma, [[0.0]])  # planted
    """),
    (fits_off_the_model_table, "noise.py", """
        def fit(x, y, sigma):
            return _fit(lambda theta: theta, x, y, sigma, [[0.0]], Model(f, (), ()))
    """),
    (points_read_off_the_helper, "inference.py", """
        def _checked_points(points, what, names):
            return sorted(points)
        def fit_one(points):
            x, y, sigma = _checked_points(points, "fit", ("x", "y", "sigma"))
            return x.size
        def fit_two(curve, n_boot=10):
            t = [p[0] for p in curve]  # planted
            x, y, sigma = _checked_points(curve[1:], "fit", ("x", "y", "sigma"))  # planted
            return len(points)
        def fit_three(data, points=None):
            _checked_points(data, "fit", ("x", "y", "sigma"))
            n = len(points)  # planted
            return _checked_points(points, "fit", ("x", "y", "sigma"))
    """),
    (points_read_off_the_helper, "noise.py", """
        def budget(points):
            return [p[0] for p in points]
    """),
]


@pytest.mark.parametrize(
    "rule, name, source", _PLANTED,
    ids=[f"{rule.__name__}-{name}-{i}" for i, (rule, name, _) in enumerate(_PLANTED)],
)
def test_rule_reports_a_planted_violation(rule, name, source):
    source = textwrap.dedent(source)
    planted = [
        f"{name}:{i}" for i, line in enumerate(source.splitlines(), 1)
        if "# planted" in line
    ]
    assert violations(rule, {name: source}) == planted
