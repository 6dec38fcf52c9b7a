"""Rule interface and the string-keyed ``RULES`` registry.

Registry semantics mirror :mod:`repro.protocols.registry` and
:mod:`repro.kernels.base`: rules are singletons keyed by a stable id,
:func:`get_rule` raises an actionable ``KeyError`` for unknown ids, and
:func:`register_rule` is the extension seam — adding rule 9 is one subclass
plus one ``register_rule`` call.

Two rule shapes exist:

* :class:`AstRule` — declares the ``ast`` node types it wants
  (``node_types``) and receives exactly those nodes from the engine's
  single-pass multiplexer, along with the :class:`ModuleContext` of the file
  being walked;
* :class:`ProjectRule` — introspection checks that run once per engine
  invocation (not per file), anchored to a source file so per-path scoping
  and baselines still apply (the capability-metadata cross-check).

Every rule carries ``id``, ``slug``, ``summary``, a ``rationale`` tying it to
the repository invariant (and the PR that motivated it), and a ``hint``
naming the blessed alternative — findings are actionable, not just red.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Optional, Sequence

from repro.lint.findings import Finding

__all__ = [
    "AstRule",
    "ModuleContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "get_rule",
    "normalize_selection",
    "register_rule",
]


@dataclass
class ModuleContext:
    """Per-file state shared by every rule during one engine pass."""

    path: str  # repo-relative posix path
    tree: ast.Module
    lines: Sequence[str]
    _nested_functions: Optional[frozenset[str]] = field(default=None, repr=False)

    def snippet(self, node: ast.AST) -> str:
        """The stripped source line a node starts on (fingerprint input)."""
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    @property
    def nested_function_names(self) -> frozenset[str]:
        """Names of functions defined *inside* other functions in this module.

        Such functions are unpicklable (they live in a local namespace), so
        passing one to a multiprocess fan-out seam is the same hazard as
        passing a lambda.  Computed lazily, once per file.
        """
        if self._nested_functions is None:
            nested: set[str] = set()
            for outer in ast.walk(self.tree):
                if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for stmt in ast.walk(outer):
                    if stmt is outer:
                        continue
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested.add(stmt.name)
            self._nested_functions = frozenset(nested)
        return self._nested_functions


class Rule(abc.ABC):
    """One determinism-contract check, registered under a stable id."""

    #: Stable registry key (``--select REP101``).
    id: ClassVar[str] = "REP000"
    #: Human alias, also accepted by ``--select``/``--ignore``.
    slug: ClassVar[str] = "abstract"
    #: One-line description (CLI ``--list-rules``, README table).
    summary: ClassVar[str] = ""
    #: Which repository invariant the rule protects and where it came from.
    rationale: ClassVar[str] = ""
    #: The blessed alternative, printed with every finding.
    hint: ClassVar[str] = ""
    #: Repo-relative path prefixes the rule is confined to; empty = all
    #: linted files.  Prefix semantics keep per-path CLI scoping cheap.
    scope: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, rel_path: str) -> bool:
        """Whether ``rel_path`` is inside this rule's scope."""
        if not self.scope:
            return True
        return any(rel_path.startswith(prefix) for prefix in self.scope)

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` in ``ctx``."""
        return Finding(
            rule=self.id,
            slug=self.slug,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint,
            snippet=ctx.snippet(node),
        )


class AstRule(Rule):
    """A rule driven by the engine's single-pass AST multiplexer."""

    #: The exact ``ast`` node classes this rule wants to see.
    node_types: ClassVar[tuple[type, ...]] = ()

    @abc.abstractmethod
    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one node (of a type in ``node_types``)."""


class ProjectRule(Rule):
    """A whole-project introspection check, anchored to one source file.

    The engine runs it when the linted path set covers ``anchor`` — so
    ``repro lint src/repro/bench.py`` skips it, while the default repo-wide
    invocation (and CI) always includes it.
    """

    #: Repo-relative file the rule's findings anchor to.
    anchor: ClassVar[str] = ""

    @abc.abstractmethod
    def check_project(self) -> Iterator[Finding]:
        """Yield findings from live introspection (no AST involved)."""


#: Registered rules, keyed by :attr:`Rule.id`.
RULES: dict[str, Rule] = {}


def register_rule(rule: Rule, *, overwrite: bool = False) -> Rule:
    """Add ``rule`` to the registry under its ``id``; return it.

    Re-registering an id (or shadowing an existing slug) raises unless
    ``overwrite=True`` — silently replacing a contract check would let the
    violation it guards against ship unnoticed.
    """
    if not isinstance(rule, Rule):
        raise TypeError(f"expected a Rule instance, got {rule!r}")
    if not overwrite:
        if rule.id in RULES:
            raise ValueError(
                f"rule {rule.id!r} is already registered; pass overwrite=True "
                "to replace it"
            )
        for existing in RULES.values():
            if existing.slug == rule.slug:
                raise ValueError(
                    f"slug {rule.slug!r} is already taken by {existing.id}; "
                    "pick a distinct slug or pass overwrite=True"
                )
    RULES[rule.id] = rule
    return rule


def get_rule(spec: str) -> Rule:
    """Return the rule registered under id *or* slug ``spec``.

    Raises ``KeyError`` with the known ids for anything else — the CLI turns
    that into an exit-2 usage error.
    """
    rule = RULES.get(spec)
    if rule is not None:
        return rule
    for candidate in RULES.values():
        if candidate.slug == spec:
            return candidate
    known = ", ".join(f"{rule_id} ({RULES[rule_id].slug})" for rule_id in sorted(RULES))
    raise KeyError(f"unknown rule {spec!r}; known rules: {known}")


def normalize_selection(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> dict[str, Rule]:
    """Resolve ``--select``/``--ignore`` specs into the active rule mapping.

    Both accept ids and slugs; unknown specs raise the :func:`get_rule`
    ``KeyError``.  ``select`` narrows the registry, ``ignore`` subtracts.
    """
    if select is not None:
        chosen = {get_rule(spec).id for spec in select}
    else:
        chosen = set(RULES)
    if ignore is not None:
        chosen -= {get_rule(spec).id for spec in ignore}
    return {rule_id: RULES[rule_id] for rule_id in sorted(chosen)}
