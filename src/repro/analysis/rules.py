"""reprolint rules: the repo's kernel/service contracts as AST checks.

Each rule encodes an invariant the SPbLA reproduction's performance or
correctness claims depend on; generic linters cannot see any of them.
Rules are pluggable: subclass :class:`Rule`, decorate with
:func:`register`, and the engine picks it up.  Site allowlists (listed
here, justified in ``docs/ANALYSIS.md``) use ``relpath::Qualified.name``
keys from :meth:`ModuleContext.site`; one-off exemptions use the inline
``# reprolint: disable=Rn`` marker instead.

Rule summary (full rationale in docs/ANALYSIS.md):

========  ==================================================================
R1        no silent densification in kernel hot paths
R2        word-buffer allocations flow through the arena-accounted sites
R3        ``# guarded-by: <lock>`` attributes only touched under that lock
R4        no broad ``except Exception`` that swallows (must re-raise or
          be an allowlisted shutdown path)
R5        kernel purity: no RNG / module-global mutation in backends
R6        public backend ops validate operand shapes before dispatch
========  ==================================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding

#: Package-relative directories whose code is a kernel hot path.
HOT_DIRS = ("formats/", "backends/", "cfpq/", "rpq/")

_RULES: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    _RULES[cls.id] = cls
    return cls


def rule_registry() -> dict[str, type["Rule"]]:
    return dict(_RULES)


def default_rules(select: set[str] | None = None) -> list["Rule"]:
    ids = sorted(_RULES) if select is None else sorted(select)
    return [_RULES[i]() for i in ids]


class Rule:
    """Base class: one contract, one id, one ``check`` generator."""

    id: str = "R?"
    name: str = "abstract"
    rationale: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


def _is_np_call(node: ast.Call, *names: str) -> bool:
    """True for ``np.<name>(...)`` / ``numpy.<name>(...)``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


@register
class NoSilentDensification(Rule):
    """R1 — the 5x/4x claims die the moment a hot path goes dense.

    Flags, inside ``formats/ backends/ cfpq/ rpq/``:

    * calls to ``.to_dense()`` / ``.toarray()`` / ``.todense()``;
    * 2-D boolean allocations (``np.zeros((m, n), dtype=bool)`` and
      friends) — the signature of materializing a dense mask.

    Conversion *endpoints* (the functions whose whole job is the
    format change) are allowlisted by site.
    """

    id = "R1"
    name = "no-silent-densification"
    rationale = "dense materialization in a hot path voids the memory claim"

    DENSE_CALLS = ("to_dense", "toarray", "todense")
    ALLOC_CALLS = ("zeros", "ones", "empty", "full")

    #: Conversion endpoints: densification is their declared contract.
    ALLOWED_SITES = {
        # dense -> packed constructor (the dense input already exists).
        "formats/bitmatrix.py::BitMatrix.from_dense",
        # COO readback: unpack-then-nonzero is the readback path itself.
        "formats/bitmatrix.py::BitMatrix.to_coo_arrays",
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_dirs(*HOT_DIRS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.DENSE_CALLS
            ):
                if module.site(node) in self.ALLOWED_SITES:
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"dense materialization via .{func.attr}() in hot path "
                    f"(allowlist the site or keep the data packed)",
                )
            elif _is_np_call(node, *self.ALLOC_CALLS):
                if not self._is_dense_bool_alloc(node):
                    continue
                if module.site(node) in self.ALLOWED_SITES:
                    continue
                yield module.finding(
                    self.id,
                    node,
                    "2-D boolean allocation in hot path "
                    "(dense mask materialization)",
                )

    @staticmethod
    def _is_dense_bool_alloc(node: ast.Call) -> bool:
        dtype = _keyword(node, "dtype")
        if not (isinstance(dtype, ast.Name) and dtype.id == "bool"):
            return False
        return bool(
            node.args
            and isinstance(node.args[0], ast.Tuple)
            and len(node.args[0].elts) == 2
        )


@register
class ArenaAccounting(Rule):
    """R2 — word buffers must be visible to the memory experiments.

    E0/E8 report "memory consumed" from the device arena's counters;
    a ``uint64`` word-buffer allocation in the bit-kernel layer that
    never flows into the arena silently understates the dense format's
    footprint.  Word allocations in the covered modules are only legal
    inside the registered arena-flow functions — the constructors and
    kernels whose results are adopted into the arena by
    ``HybridBackend._adopt_bit`` (see docs/ANALYSIS.md for the audit).

    Read-only ``np.memmap`` views (the persistent store's zero-copy
    snapshot loads — word arrays *and* sparse index arrays) are the one
    sanctioned alternative flow: word views are accounted under the
    arena's ``mapped_bytes`` via ``MemoryArena.adopt_external`` rather
    than the heap counters, and every view is only legal inside the
    registered memmap-flow functions.  Every ``np.memmap`` call in a
    covered module is checked, whatever its dtype — a mapped ``uint32``
    index array dodging the audit misstates the footprint exactly like
    a mapped word array would.
    """

    id = "R2"
    name = "arena-accounting"
    rationale = "unaccounted word buffers falsify the memory experiments"

    #: Modules whose word allocations the arena must account for.
    COVERED = (
        "formats/bitmatrix.py",
        "formats/tiled.py",
        "backends/hybrid.py",
        "store/container.py",
    )

    #: Audited functions whose allocated words are arena-adopted, plus
    #: fused kernels whose bounded word scratch never outlives the call
    #: (audit in docs/ANALYSIS.md).
    ARENA_FLOW_SITES = {
        "formats/bitmatrix.py::BitMatrix.empty",
        "formats/bitmatrix.py::BitMatrix.from_dense",
        # Transpose scratch fallback: one (wpr, row_blocks, 64) tile
        # cube when no arena scratch is passed; the hybrid route always
        # passes arena-allocated scratch.
        "formats/bitmatrix.py::BitMatrix.transpose_into",
        # Fused kron: one shifted (p, span) B-block scratch per set A
        # column, freed before return; the result words are the caller's.
        "formats/bitmatrix.py::BitMatrix.kron_into",
        # Four-Russians tables: 32x B's words of workspace, freed before
        # return; the hybrid router charges it against the arena budget
        # before choosing this kernel.
        "formats/bitmatrix.py::BitMatrix.mxm_four_russians_into",
        # Tiled kernels: the (sel, red) scratch fallback when the caller
        # passes none (the hybrid route passes arena scratch) and the
        # per-present-tile FR tables — bounded and freed before return.
        "formats/tiled.py::TiledBitMatrix.mxm_into",
        "formats/tiled.py::_build_fr_tables",
        # Zero-row fallback of the snapshot loader; the mapped path is
        # covered by MEMMAP_FLOW_SITES below.
        "store/container.py::_map_words",
    }

    #: Audited functions whose mapped views reach the accounting: word
    #: views via ``MemoryArena.adopt_external`` (mapped_bytes), sparse
    #: index views mapped ``mode="r"`` (a write raises; sharing the
    #: pages is the point).
    MEMMAP_FLOW_SITES = {
        "store/container.py::_map_words",
        "store/container.py::_map_array",
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.relpath not in self.COVERED:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_np_call(node, "memmap"):
                site = module.site(node)
                if site in self.MEMMAP_FLOW_SITES:
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"memmap view outside the audited memmap-flow "
                    f"functions (site {site.split('::')[-1]!r}; mapped "
                    f"views must reach MemoryArena.adopt_external or a "
                    f"registered memmap-flow site)",
                )
                continue
            if not _is_np_call(node, "zeros", "empty", "ones", "full"):
                continue
            if not self._is_word_alloc(node):
                continue
            site = module.site(node)
            if site in self.ARENA_FLOW_SITES:
                continue
            yield module.finding(
                self.id,
                node,
                f"uint64 word-buffer allocation outside the audited "
                f"arena-flow functions (site {site.split('::')[-1]!r}; "
                f"route through MemoryArena or register + justify in "
                f"docs/ANALYSIS.md)",
            )

    @staticmethod
    def _is_word_alloc(node: ast.Call) -> bool:
        dtype = _keyword(node, "dtype")
        if dtype is None and len(node.args) >= 2:
            dtype = node.args[1]
        if isinstance(dtype, ast.Name):
            return dtype.id == "_WORD"
        if isinstance(dtype, ast.Attribute):
            return dtype.attr == "uint64"
        return False


_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")


@register
class GuardedByDiscipline(Rule):
    """R3 — annotated shared attributes only move under their lock.

    An attribute whose defining line carries ``# guarded-by: <lock>``
    (instance assignment in ``__init__`` or a class-level/dataclass
    field) may only be read or written through ``self`` inside a
    ``with self.<lock>:`` block.  ``__init__`` is exempt — the object
    is not yet shared during construction.  The lock sentinel
    (:mod:`repro.analysis.locktrace`) covers what this rule cannot:
    ordering between locks and locks held across kernel calls.
    """

    id = "R3"
    name = "guarded-by-discipline"
    rationale = "unguarded shared-state access races the worker pool"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # -- per-class ---------------------------------------------------------

    def _check_class(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        guarded = self._collect_guarded(module, cls)
        if not guarded:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            yield from self._check_function(module, cls, item, guarded, set())

    def _collect_guarded(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> dict[str, str]:
        """attr name -> guard lock name, from ``# guarded-by:`` comments."""
        guarded: dict[str, str] = {}

        def note(node: ast.stmt, attr: str) -> None:
            # Scan the whole statement span: the comment may trail the
            # closing line of a multi-line assignment.
            end = getattr(node, "end_lineno", node.lineno)
            for lineno in range(node.lineno, min(end, len(module.lines)) + 1):
                match = _GUARDED_RE.search(module.lines[lineno - 1])
                if match:
                    guarded[attr] = match.group(1)
                    return

        # Class-level fields (dataclass style).
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                note(stmt, stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        note(stmt, tgt.id)
        # Instance attributes assigned in __init__.
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for sub in ast.walk(stmt):
                    targets = []
                    if isinstance(sub, ast.Assign):
                        targets = sub.targets
                    elif isinstance(sub, ast.AnnAssign):
                        targets = [sub.target]
                    for tgt in targets:
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                        ):
                            note(sub, tgt.attr)
        return guarded

    def _check_function(
        self,
        module: ModuleContext,
        cls: ast.ClassDef,
        fn: ast.AST,
        guarded: dict[str, str],
        held: set[str],
    ) -> Iterator[Finding]:
        """Walk statements tracking which self.<lock> guards are held."""
        for stmt in getattr(fn, "body", []):
            yield from self._check_stmt(module, cls, stmt, guarded, held)

    def _check_stmt(
        self,
        module: ModuleContext,
        cls: ast.ClassDef,
        stmt: ast.stmt,
        guarded: dict[str, str],
        held: set[str],
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.With):
            newly = set()
            for item in stmt.items:
                lock = self._self_attr(item.context_expr)
                if lock is not None:
                    newly.add(lock)
                yield from self._check_expr(
                    module, cls, item.context_expr, guarded, held
                )
            inner = held | newly
            for sub in stmt.body:
                yield from self._check_stmt(module, cls, sub, guarded, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function runs later: assume no guard is held.
            yield from self._check_function(module, cls, stmt, guarded, set())
            return
        # Generic statement: check embedded expressions, recurse into
        # compound bodies with the same held set.
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                yield from self._check_expr(module, cls, value, guarded, held)
            elif isinstance(value, list):
                for sub in value:
                    if isinstance(sub, ast.stmt):
                        yield from self._check_stmt(
                            module, cls, sub, guarded, held
                        )
                    elif isinstance(sub, ast.expr):
                        yield from self._check_expr(
                            module, cls, sub, guarded, held
                        )
                    elif isinstance(sub, (ast.excepthandler, ast.withitem, ast.keyword)):
                        for subsub in ast.iter_child_nodes(sub):
                            if isinstance(subsub, ast.stmt):
                                yield from self._check_stmt(
                                    module, cls, subsub, guarded, held
                                )
                            elif isinstance(subsub, ast.expr):
                                yield from self._check_expr(
                                    module, cls, subsub, guarded, held
                                )

    def _check_expr(
        self,
        module: ModuleContext,
        cls: ast.ClassDef,
        expr: ast.expr,
        guarded: dict[str, str],
        held: set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda,)):
                continue
            attr = self._self_attr(node)
            if attr is None or attr not in guarded:
                continue
            guard = guarded[attr]
            if guard in held:
                continue
            yield module.finding(
                self.id,
                node,
                f"{cls.name}.{attr} is guarded-by {guard!r} but accessed "
                f"outside `with self.{guard}`",
            )

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None


@register
class NoBroadExcept(Rule):
    """R4 — failures must speak the :mod:`repro.errors` taxonomy.

    ``except Exception`` / ``except BaseException`` that *swallows* is
    flagged everywhere.  A broad handler is accepted when its body
    re-raises (``raise`` anywhere in the handler) — the sanctioned
    wrap-into-taxonomy boundary pattern — and interpreter-shutdown /
    last-resort sites carry an inline disable justified in
    docs/ANALYSIS.md.
    """

    id = "R4"
    name = "no-broad-except"
    rationale = "broad handlers hide taxonomy violations and real bugs"

    BROAD = ("Exception", "BaseException")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            yield module.finding(
                self.id,
                node,
                f"broad `except {broad}` swallows errors — catch the "
                f"repro.errors taxonomy or re-raise with context",
            )

    def _broad_name(self, type_node: ast.expr | None) -> str | None:
        if type_node is None:
            return "BaseException"  # bare except
        if isinstance(type_node, ast.Name) and type_node.id in self.BROAD:
            return type_node.id
        if isinstance(type_node, ast.Tuple):
            for elt in type_node.elts:
                if isinstance(elt, ast.Name) and elt.id in self.BROAD:
                    return elt.id
        return None


@register
class KernelPurity(Rule):
    """R5 — backend kernels are deterministic, state-free functions.

    The agreement tests (and the hybrid dispatcher's cost model) assume
    a kernel's output depends only on its operands.  Flags, inside
    ``backends/``:

    * any use of ``np.random`` or the stdlib ``random`` module;
    * ``global`` declarations in functions;
    * writes to module-level mutable names from inside a function
      (subscript stores / augmented assigns on a module-global);
    * subscript stores into a function *parameter*'s storage
      (``param[...]`` / ``param.words[...]``) — a hidden output channel
      — **unless** the function declares the in-place contract: its
      name ends in ``_into`` or ``_inplace`` (the fused accumulate
      kernels, whose out-parameter mutation *is* the declared result),
      or the mutated parameter is named ``out``.  Parameters named
      ``mask`` or ``semiring`` are exempt from the exemption: the
      masked-accumulate contract makes the mask a read-only operand
      and a semiring is shared immutable algebra metadata, so writes
      to either always fire — even inside a declared in-place kernel.
    """

    id = "R5"
    name = "kernel-purity"
    rationale = "nondeterministic or stateful kernels break agreement tests"

    #: Function-name suffixes declaring a sanctioned in-place kernel.
    INTO_SUFFIXES = ("_into", "_inplace")
    #: Parameter names that are an explicit output by convention.
    OUT_PARAMS = ("out", "self", "cls")
    #: Parameter names that are read-only by contract *everywhere*,
    #: including declared in-place kernels (masked accumulate: the mask
    #: filters the product, it is never an output; a semiring is shared
    #: registry state — a kernel scribbling on it would corrupt every
    #: other operation using the same algebra).
    READONLY_PARAMS = ("mask", "semiring")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_dirs("backends/"):
            return
        module_globals = self._module_level_names(module.tree)
        param_scopes = self._parameter_scopes(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                if (
                    node.attr == "random"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                ):
                    yield module.finding(
                        self.id, node, "np.random in a backend kernel"
                    )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [a.name for a in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                )
                if "random" in names:
                    yield module.finding(
                        self.id, node, "stdlib random imported in a backend"
                    )
            elif isinstance(node, ast.Global):
                yield module.finding(
                    self.id,
                    node,
                    f"`global {', '.join(node.names)}` in a backend function",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    name = self._subscript_base(tgt)
                    if name in module_globals and module.qualname_at(node):
                        yield module.finding(
                            self.id,
                            node,
                            f"mutation of module-level {name!r} from inside "
                            f"a function (hidden kernel state)",
                        )
                        continue
                    scope = param_scopes.get(id(node))
                    if scope is None:
                        continue
                    fn_name, params = scope
                    root = self._subscript_root(tgt)
                    if root is None or root not in params:
                        continue
                    if root in self.READONLY_PARAMS:
                        yield module.finding(
                            self.id,
                            node,
                            f"{fn_name} writes to its {root!r} parameter "
                            f"(read-only by the operation contract, "
                            f"even in *_into kernels)",
                        )
                        continue
                    if fn_name.endswith(self.INTO_SUFFIXES):
                        continue  # declared in-place kernel contract
                    if root in self.OUT_PARAMS:
                        continue
                    yield module.finding(
                        self.id,
                        node,
                        f"{fn_name} mutates parameter {root!r} in place "
                        f"(hidden output channel — name the kernel "
                        f"*_into/*_inplace or the parameter 'out' to "
                        f"declare the contract)",
                    )

    @classmethod
    def _parameter_scopes(
        cls, tree: ast.Module
    ) -> dict[int, tuple[str, frozenset[str]]]:
        """id(stmt) -> (enclosing function name, its parameter names).

        Statements map to their *innermost* enclosing function, so a
        closure's writes are judged against the closure's own signature
        (enclosing-scope locals are not parameters).
        """
        scopes: dict[int, tuple[str, frozenset[str]]] = {}

        def visit(node: ast.AST, current: tuple[str, frozenset[str]] | None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    params = frozenset(
                        a.arg
                        for a in (
                            *args.posonlyargs,
                            *args.args,
                            *args.kwonlyargs,
                            *((args.vararg,) if args.vararg else ()),
                            *((args.kwarg,) if args.kwarg else ()),
                        )
                    )
                    visit(child, (child.name, params))
                else:
                    if current is not None and isinstance(
                        child, (ast.Assign, ast.AugAssign)
                    ):
                        scopes[id(child)] = current
                    visit(child, current)

        visit(tree, None)
        return scopes

    @staticmethod
    def _subscript_root(tgt: ast.expr) -> str | None:
        """Root name of a subscript store, through attribute chains:
        ``a[i]`` and ``a.words[i]`` both root at ``'a'``."""
        if not isinstance(tgt, ast.Subscript):
            return None
        base = tgt.value
        while isinstance(base, ast.Attribute):
            base = base.value
        return base.id if isinstance(base, ast.Name) else None

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:
        names = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                names.add(stmt.target.id)
        return names

    @staticmethod
    def _subscript_base(tgt: ast.expr) -> str | None:
        if isinstance(tgt, ast.Subscript) and isinstance(tgt.value, ast.Name):
            return tgt.value.id
        return None


@register
class ShapeContract(Rule):
    """R6 — every public backend op validates shapes before dispatch.

    A kernel fed mismatched operands must raise
    ``DimensionMismatchError`` *before* touching storage — not crash
    mid-kernel with a numpy broadcast error.  For every concrete
    ``*Backend`` class, each binary op it defines must call one of the
    shared validators from ``backends/base.py`` (or raise the
    dimension error itself).

    The same pre-dispatch discipline applies to the algebra: a method
    that accepts ``semiring=`` must resolve it through the registry
    (``_resolve_semiring`` from ``backends/base.py``, or the generic
    backend's ``_resolve_ops``) before dispatching, so unknown names
    and unsupported algebras fail as ``InvalidArgumentError`` rather
    than as a missing-attribute crash mid-kernel.
    """

    id = "R6"
    name = "shape-contract"
    rationale = "unvalidated operands turn API misuse into kernel crashes"

    #: op -> accepted validator call names.
    REQUIRED = {
        "mxm": ("_check_mxm_shapes",),
        "ewise_add": ("_check_same_shape", "same_shape"),
        "ewise_mult": ("_check_same_shape", "same_shape"),
        "extract_submatrix": ("_check_submatrix",),
    }

    #: Accepted semiring-resolution call names (backends/base.py and
    #: the generic backend's combined resolver).
    SEMIRING_RESOLVERS = ("_resolve_semiring", "_resolve_ops")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_dirs("backends/"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_concrete_backend(node):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                accepted = self.REQUIRED.get(item.name)
                if accepted is not None and not self._validates(
                    item, accepted
                ):
                    yield module.finding(
                        self.id,
                        item,
                        f"{node.name}.{item.name} dispatches without a shape "
                        f"check (call {accepted[0]} or raise "
                        f"DimensionMismatchError first)",
                    )
                if self._takes_semiring(item) and not self._calls_any(
                    item, self.SEMIRING_RESOLVERS
                ):
                    yield module.finding(
                        self.id,
                        item,
                        f"{node.name}.{item.name} accepts semiring= but "
                        f"never resolves it (call _resolve_semiring or "
                        f"_resolve_ops before dispatch)",
                    )

    @staticmethod
    def _takes_semiring(fn: ast.FunctionDef) -> bool:
        if fn.name in ShapeContract.SEMIRING_RESOLVERS:
            return False  # the resolvers themselves
        args = fn.args
        return any(
            a.arg == "semiring" for a in args.args + args.kwonlyargs
        )

    @staticmethod
    def _calls_any(fn: ast.FunctionDef, names: tuple[str, ...]) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", "")
                )
                if name in names:
                    return True
        return False

    @staticmethod
    def _is_concrete_backend(node: ast.ClassDef) -> bool:
        if node.name == "Backend":
            return False
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            if name == "Backend" or name.endswith("Backend"):
                return True
        return False

    @staticmethod
    def _validates(fn: ast.FunctionDef, accepted: tuple[str, ...]) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", "")
                )
                if name in accepted:
                    return True
            if isinstance(node, ast.Raise):
                exc = node.exc
                call_name = ""
                if isinstance(exc, ast.Call):
                    call_name = (
                        exc.func.id
                        if isinstance(exc.func, ast.Name)
                        else getattr(exc.func, "attr", "")
                    )
                if call_name == "DimensionMismatchError":
                    return True
        return False
