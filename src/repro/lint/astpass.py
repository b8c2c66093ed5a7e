"""The AST determinism pass: raw-rng, wall-clock, unordered-iter,
stream-label.

One :func:`lint_module` call scans one source file and returns its
per-site findings plus every statically-visible ``derive_seed`` stream
label it contains; :func:`cross_module_findings` then checks the
collected labels of a whole tree for collisions.  The pass is purely
syntactic — it never imports the code under scan — so it can run on a
broken tree and inside CI before any heavyweight import.

What the rules resolve
----------------------
``raw-rng``
    A call that constructs or reseeds a generator
    (``random.Random``/``random.seed``, numpy's
    ``default_rng``/``Generator``/``PCG64``/``RandomState``) outside
    :mod:`repro.sim.rng`, unless some argument visibly derives from
    :func:`~repro.sim.rng.derive_seed` — either a direct
    ``derive_seed(...)`` call in the argument expression or a local
    name previously assigned from one.  Import aliases are resolved
    (``import random as _random``, ``import numpy as np``,
    ``from random import Random``).

``wall-clock``
    A call to ``time.time``/``monotonic``/``perf_counter``/
    ``process_time`` (plus ``_ns`` forms) or
    ``datetime.now``/``utcnow``/``today`` anywhere.

``unordered-iter``
    A ``for`` loop or comprehension whose iterable is statically
    set-shaped — a set literal/comprehension, ``set()``/
    ``frozenset()``, a ``.keys()`` call, a name assigned a set in the
    same scope, or a set-operator expression over those — and whose
    body schedules events, draws randomness, or builds an edge list.
    Wrapping the iterable in ``sorted(...)`` resolves it;
    ``list(...)``/``tuple(...)``/``iter(...)`` wrappers do not (they
    preserve the unordered order).

``stream-label``
    Per-site: a ``derive_seed`` label inside :mod:`repro.engine_vec`
    that does not carry the ``vec/`` prefix (the namespace that keeps
    vectorized draws from aliasing event-engine streams).  F-string
    labels are normalized to templates (``f"cell/{index}"`` →
    ``cell/{}``) so parameterized labels compare structurally;
    fully-dynamic labels (a bare variable) are invisible to the pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.report import Finding
from repro.lint.rules import RNG_HOME_SUFFIX, RULES

#: Fully-resolved callables that construct or reseed a generator.
RAW_RNG_CALLS = frozenset({
    "random.Random", "random.seed", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.PCG64", "numpy.random.RandomState",
    "numpy.random.seed",
})

#: Fully-resolved callables that read the wall clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Method names whose call inside a loop body means the loop order
#: reaches the event stream.
SCHEDULING_METHODS = frozenset({
    "call_at", "call_after", "call_repeating", "call_at_key",
    "schedule", "heappush", "push", "send", "broadcast",
    "set_link_active", "apply_edge_event", "apply_node_event",
    "notify_cluster_edge", "deliver",
})

#: Method names that consume a random stream (draw order matters).
DRAW_METHODS = frozenset({
    "random", "uniform", "gauss", "normalvariate", "expovariate",
    "paretovariate", "lognormvariate", "triangular", "betavariate",
    "choice", "choices", "randint", "randrange", "getrandbits",
    "sample", "shuffle", "integers", "standard_normal", "normal",
    "poisson", "stream",
})

#: Container mutators that, on an edge-named receiver, mean the loop
#: builds an edge list.
_MUTATORS = frozenset({"append", "add", "extend"})

#: Path fragment marking the vectorized engine package.
_VEC_PACKAGE = "repro/engine_vec/"


@dataclass(frozen=True)
class StreamLabel:
    """One statically-visible ``derive_seed`` label site."""

    path: str
    line: int
    template: str


def _terminal_name(func: ast.expr) -> str | None:
    """The rightmost name of a call target (``a.b.c`` → ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_derive_seed_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and _terminal_name(node.func) == "derive_seed")


def _fstring_template(node: ast.JoinedStr) -> str:
    parts = []
    for piece in node.values:
        if isinstance(piece, ast.Constant) and isinstance(piece.value,
                                                         str):
            parts.append(piece.value)
        else:
            parts.append("{}")
    return "".join(parts)


def _label_template(node: ast.expr) -> str | None:
    """Static template of a label expression, or ``None`` if dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return _fstring_template(node)
    return None


class _Scope:
    """Name facts for one function (or the module body)."""

    def __init__(self) -> None:
        #: Names assigned from an expression containing derive_seed.
        self.derived: set[str] = set()
        #: Names assigned a statically set-shaped value.
        self.sets: set[str] = set()


class DeterminismVisitor(ast.NodeVisitor):
    """One-file walker producing findings and stream labels."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.findings: list[Finding] = []
        self.labels: list[StreamLabel] = []
        #: import alias -> module dotted name ("np" -> "numpy").
        self._modules: dict[str, str] = {}
        #: from-import alias -> full dotted name
        #: ("Random" -> "random.Random").
        self._names: dict[str, str] = {}
        self._scopes: list[_Scope] = []
        self._rng_home = self.relpath.endswith(RNG_HOME_SUFFIX)
        self._in_vec = _VEC_PACKAGE in self.relpath

    # -- imports ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._modules[alias.asname or alias.name.split(".")[0]] = \
                alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self._names[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _resolve(self, func: ast.expr) -> str | None:
        """Dotted name of a call target with import aliases applied."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.reverse()
        resolved = self._names.get(root)
        if resolved is not None:
            return ".".join([resolved] + parts)
        module = self._modules.get(root)
        if module is not None:
            return ".".join([module] + parts)
        return ".".join([root] + parts)

    # -- scope bookkeeping -------------------------------------------

    def _prescan(self, body: list[ast.stmt]) -> _Scope:
        """Collect name facts for a new scope before walking it."""
        scope = _Scope()
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                if value is None:
                    continue
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets
                         if isinstance(t, ast.Name)]
                if not names:
                    continue
                if any(_is_derive_seed_call(sub)
                       for sub in ast.walk(value)):
                    scope.derived.update(names)
                if self._set_shape(value, scope) is not None:
                    scope.sets.update(names)
        return scope

    def visit_Module(self, node: ast.Module) -> None:
        self._scopes.append(self._prescan(node.body))
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_function(self, node) -> None:
        self._scopes.append(self._prescan(node.body))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _name_derived(self, name: str) -> bool:
        return any(name in scope.derived for scope in self._scopes)

    def _name_set(self, name: str) -> bool:
        return any(name in scope.sets for scope in self._scopes)

    # -- raw-rng ------------------------------------------------------

    def _seed_is_derived(self, call: ast.Call) -> bool:
        """Some argument visibly flows from ``derive_seed``."""
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            for sub in ast.walk(arg):
                if _is_derive_seed_call(sub):
                    return True
                if (isinstance(sub, ast.Name)
                        and self._name_derived(sub.id)):
                    return True
        return False

    def _check_raw_rng(self, node: ast.Call, dotted: str) -> None:
        if self._rng_home:
            return
        if self._seed_is_derived(node):
            return
        self.findings.append(Finding(
            path=self.relpath, line=node.lineno, rule="raw-rng",
            message=f"{dotted}(...) seeded outside the derive_seed "
                    "discipline",
            hint=RULES["raw-rng"].hint))

    # -- wall-clock ---------------------------------------------------

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        self.findings.append(Finding(
            path=self.relpath, line=node.lineno, rule="wall-clock",
            message=f"{dotted}() reads the wall clock in a "
                    "deterministic module",
            hint=RULES["wall-clock"].hint))

    # -- stream-label -------------------------------------------------

    def _check_stream_label(self, node: ast.Call) -> None:
        label: ast.expr | None = None
        if len(node.args) >= 2:
            label = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "name":
                    label = kw.value
        if label is None:
            return
        template = _label_template(label)
        if template is None:
            return  # dynamic label; invisible to the static pass
        self.labels.append(StreamLabel(
            path=self.relpath, line=node.lineno, template=template))
        if self._in_vec and not template.startswith("vec/"):
            self.findings.append(Finding(
                path=self.relpath, line=node.lineno,
                rule="stream-label",
                message=f"vectorized stream label {template!r} is "
                        "missing the vec/ prefix",
                hint=RULES["stream-label"].hint))

    # -- unordered-iter -----------------------------------------------

    def _set_shape(self, node: ast.expr,
                   scope: _Scope | None = None) -> str | None:
        """Why ``node`` is statically unordered, or ``None``."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name in ("set", "frozenset"):
                return f"{name}(...)"
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "keys"):
                return ".keys()"
            if name in ("list", "tuple", "iter", "reversed",
                        "enumerate") and node.args:
                inner = self._set_shape(node.args[0], scope)
                if inner is not None:
                    return f"{name}({inner})"
            return None
        if isinstance(node, ast.Name):
            if scope is not None:
                if node.id in scope.sets:
                    return f"the set-typed name {node.id!r}"
            elif self._name_set(node.id):
                return f"the set-typed name {node.id!r}"
            return None
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            left = self._set_shape(node.left, scope)
            right = self._set_shape(node.right, scope)
            if left is not None or right is not None:
                return "a set-operator expression"
        return None

    def _sensitivity(self, nodes: list[ast.AST]) -> str | None:
        """Why a loop body is order-sensitive, or ``None``."""
        for top in nodes:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute):
                    attr = node.func.attr
                    if attr in SCHEDULING_METHODS:
                        return f"schedules events via .{attr}()"
                    if attr in DRAW_METHODS:
                        return f"draws randomness via .{attr}()"
                    if attr in _MUTATORS:
                        recv = _terminal_name(node.func.value)
                        if recv and "edge" in recv.lower():
                            return (f"builds an edge list via "
                                    f"{recv}.{attr}()")
        return None

    def _check_loop(self, iter_expr: ast.expr, body: list[ast.AST],
                    lineno: int) -> None:
        shape = self._set_shape(iter_expr)
        if shape is None:
            return
        why = self._sensitivity(body)
        if why is None:
            return
        self.findings.append(Finding(
            path=self.relpath, line=lineno, rule="unordered-iter",
            message=f"iterating {shape} while the body {why}",
            hint=RULES["unordered-iter"].hint))

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node.iter, list(node.body), node.lineno)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node) -> None:
        if isinstance(node, ast.DictComp):
            body: list[ast.AST] = [node.key, node.value]
        else:
            body = [node.elt]
        body += [gen.iter for gen in node.generators]
        body += [cond for gen in node.generators for cond in gen.ifs]
        for gen in node.generators:
            self._check_loop(gen.iter, body, node.lineno)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- the call dispatcher ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if _is_derive_seed_call(node):
            self._check_stream_label(node)
        dotted = self._resolve(node.func)
        if dotted in RAW_RNG_CALLS:
            self._check_raw_rng(node, dotted)
        elif dotted in WALL_CLOCK_CALLS:
            self._check_wall_clock(node, dotted)
        self.generic_visit(node)


def lint_module(text: str, relpath: str
                ) -> tuple[list[Finding], list[StreamLabel]]:
    """Run the AST pass over one file's source text.

    Returns per-site findings (pre-suppression) and the stream labels
    found, for the caller's cross-module collision check.  Raises
    ``SyntaxError`` on unparsable source — the CLI surfaces that as a
    hard error rather than a finding.
    """
    tree = ast.parse(text, filename=relpath)
    visitor = DeterminismVisitor(relpath)
    visitor.visit(tree)
    return visitor.findings, visitor.labels


def cross_module_findings(labels: list[StreamLabel]) -> list[Finding]:
    """Stream-label collisions: one template derived from >1 module.

    Two modules deriving the same label share one RNG stream — their
    draws correlate, which silently breaks stream isolation.  Each
    site gets its own finding (so each can be pragma-suppressed where
    a shared stream is genuinely intended).
    """
    by_template: dict[str, list[StreamLabel]] = {}
    for label in labels:
        by_template.setdefault(label.template, []).append(label)
    findings = []
    for template, sites in sorted(by_template.items()):
        paths = sorted({site.path for site in sites})
        if len(paths) < 2:
            continue
        for site in sites:
            others = ", ".join(p for p in paths if p != site.path)
            findings.append(Finding(
                path=site.path, line=site.line, rule="stream-label",
                message=f"stream label {template!r} is also derived "
                        f"in {others} (shared stream, correlated "
                        "draws)",
                hint=RULES["stream-label"].hint))
    return findings


__all__ = [
    "DeterminismVisitor",
    "RAW_RNG_CALLS",
    "StreamLabel",
    "WALL_CLOCK_CALLS",
    "cross_module_findings",
    "lint_module",
]
