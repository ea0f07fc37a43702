"""Shard-ownership inference: prove the declared per-channel partition.

The sharded-engine rewrite (ROADMAP "raw speed") partitions the
simulation by DRAM channel.  :mod:`repro.sim.shard` is the *declaration*
side of that contract — ``@shard_local`` / ``@shared`` classes and
``@rendezvous`` ports.  This pass is the *proof* side: an
interprocedural ownership inference over the call-graph IR
(:mod:`repro.analysis.callgraph`) that checks the declared partition
against what the code actually does, before anyone builds the split.

Every class in scope gets a point on the **ownership lattice**:

* ``Owned(domain)`` — declared ``@shard_local``; instances belong to
  exactly one shard (``channel`` keyed by ``channel_id``, or the single
  ``cpu`` shard).  Ownership evidence is the ``channel_id`` constructor
  wiring, base-class inheritance, or construction inside an
  already-owned class (the BPQ, the DRAM device model, bank objects).
* ``Shared`` — declared ``@shared``; deliberately visible to every
  shard (engine, fabric, replicated CTT, stats, backing store).
* ``Rendezvous`` — not a class point but an *edge* point: a
  ``@rendezvous`` port on an owned class, the only members other
  shards may touch.
* ``Unknown`` — no declaration.  The MC27xx gate drives this bucket to
  exactly zero for mutable component state.

Within each owned class's methods, local names are typed by provenance:
``self``-derived values stay on the owning shard; values produced by
the owner-lookup helpers (``_owner_of`` / ``_owner``) or iterated out
of ``peers``/``controllers`` collections are **cross-owner**; values
returned by a declared port call on a cross-owner receiver are
**rendezvous-derived** (data handed over at a declared synchronization
point — the port's contract covers them).  An attribute chain from a
cross-owner name must terminate in a declared port, the identity key,
or immutable configuration; anything else is an undeclared cross-shard
access (MC2701/MC2702).

Checked rules (reported through :mod:`repro.analysis.rules.ownership`):

* **MC2701** — cross-shard access to mutable state (or a non-port
  method) outside a declared rendezvous.
* **MC2702** — ownership leak: an owned class stores a cross-owner
  reference into its own instance state.
* **MC2703** — a rendezvous port scheduled outside the
  shared-rendezvous event phase (phase 2).
* **MC2704** — a component class with mutable instance state and no
  ownership declaration (the Unknown bucket).
* **MC2705** — declaration/inference mismatch: the annotation
  contradicts the ``channel_id`` wiring evidence.

Shared classes are exempt from the cross-access walk: packet delivery
through the fabric is message passing, not synchronous cross-shard
access (the fabric *is* the rendezvous), and host-side wiring
(``System``) runs before the clock starts.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (CallGraph, FunctionNode,
                                      _MUTATOR_METHODS)
from repro.analysis.core import Module, module_imports

#: Dotted-package prefixes the partition proof covers.
TARGET_PACKAGES = (
    "repro.sim",
    "repro.memctrl",
    "repro.mcsquare",
    "repro.interconnect",
    "repro.dram",
    "repro.cache",
    "repro.cpu",
    "repro.mem",
    "repro.system",
)

#: The annotation module; files importing it opt into the proof even
#: outside the target packages (planted test fixtures).
SHARD_MODULE = "repro.sim.shard"

#: Helper methods whose return value may be *another* shard's
#: controller (the owner-lookup idiom).
CROSS_OWNER_FNS = {"_owner_of", "_owner"}

#: Engine phase rendezvous events must run in (matches the phase the
#: DRAM arbiter grant uses; see ``Simulator.schedule``).
RENDEZVOUS_PHASE = 2

DECL_LOCAL = "local"
DECL_SHARED = "shared"
DECL_NONE = "unknown"


@dataclass
class ClassOwn:
    """One class's point on the ownership lattice."""

    qualname: str
    bare: str
    module: Module
    node: ast.ClassDef
    declared: str                  # local | shared | unknown
    domain: str = ""               # "channel" | "cpu" for local classes
    key: str = ""                  # owner-identity attribute
    inherited: bool = False        # declaration came from a base class
    bases: List[str] = field(default_factory=list)
    ports: Dict[str, str] = field(default_factory=dict)   # method -> port
    attrs: Dict[str, Set[str]] = field(default_factory=dict)
    mutable_attrs: Set[str] = field(default_factory=set)
    config_attrs: Set[str] = field(default_factory=set)
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: Set[str] = field(default_factory=set)
    channel_evidence: str = ""     # why inference says channel-owned
    owned_evidence: str = ""       # why inference accepts the local claim


@dataclass
class Edge:
    """One declared cross-shard rendezvous edge, as used in code."""

    site: str                      # path:line
    via: str                       # source chain, e.g. "peer.bpq.holds"
    port: str                      # declared port name, e.g. "bpq-probe"
    target: str                    # "Class.member"
    caller: str                    # accessing class qualname


@dataclass
class Problem:
    """One MC27xx violation found by the inference."""

    code: str
    module: Module
    node: ast.AST
    message: str

    def site(self) -> str:
        return f"{self.module.path}:{getattr(self.node, 'lineno', 0)}"


@dataclass
class OwnershipReport:
    classes: Dict[str, ClassOwn] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    problems: List[Problem] = field(default_factory=list)

    def unknown_classes(self) -> List[str]:
        """Qualnames of stateful classes with no ownership declaration."""
        return sorted(q for q, c in self.classes.items()
                      if c.declared == DECL_NONE and c.attrs)

    def unknown_attrs(self) -> List[str]:
        """``Class.attr`` entries in the Unknown bucket."""
        out = []
        for qual in self.unknown_classes():
            cls = self.classes[qual]
            out.extend(f"{cls.bare}.{a}" for a in sorted(cls.attrs))
        return out

    def shards(self) -> Dict[str, Dict[str, List[str]]]:
        """Per-shard attribute sets: domain -> class -> attrs."""
        out: Dict[str, Dict[str, List[str]]] = {}
        for qual in sorted(self.classes):
            cls = self.classes[qual]
            if cls.declared == DECL_LOCAL:
                out.setdefault(cls.domain, {})[qual] = sorted(cls.attrs)
        return out

    def counts(self) -> Dict[str, int]:
        local = [c for c in self.classes.values()
                 if c.declared == DECL_LOCAL]
        return {
            "local_channel_classes": sum(1 for c in local
                                         if c.domain == "channel"),
            "local_cpu_classes": sum(1 for c in local
                                     if c.domain == "cpu"),
            "shared_classes": sum(1 for c in self.classes.values()
                                  if c.declared == DECL_SHARED),
            "unknown_classes": len(self.unknown_classes()),
            "unknown_attrs": len(self.unknown_attrs()),
            "edges": len(self.edges),
            "problems": len(self.problems),
        }

    @property
    def ok(self) -> bool:
        """The gate: no Unknowns and every cross edge declared."""
        return not self.unknown_classes() and not self.problems


# ---------------------------------------------------------------- scope
def _in_target(package: str) -> bool:
    return any(package == pkg or package.startswith(pkg + ".")
               for pkg in TARGET_PACKAGES)


def _imports_shard(module: Module) -> bool:
    return any(origin == SHARD_MODULE
               or origin.startswith(SHARD_MODULE + ".")
               for origin in module_imports(module.tree).values())


def in_scope(module: Module) -> bool:
    """True when ``module`` participates in the partition proof.

    Target packages always do; any other module opting in by importing
    :mod:`repro.sim.shard` does too (planted fixtures) — except the
    analyzer's own package, whose dynamic-audit half imports the
    registries without being simulation state.
    """
    if module.package.startswith("repro.analysis"):
        return False
    return _in_target(module.package) or _imports_shard(module)


# ------------------------------------------------------- AST utilities
def _ann_name(node: Optional[ast.AST]) -> str:
    """Bare class name of a simple annotation (``Cls`` / ``"Cls"``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").rsplit(".", 1)[-1]
    return ""


def _decorator_name(dec: ast.AST) -> Tuple[str, Optional[ast.Call]]:
    """``(bare name, call node when parameterized)`` of one decorator."""
    if isinstance(dec, ast.Call):
        func = dec.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else "")
        return name, dec
    if isinstance(dec, ast.Name):
        return dec.id, None
    if isinstance(dec, ast.Attribute):
        return dec.attr, None
    return "", None


def _rooted_at(node: ast.AST, name: str) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = (node.value if isinstance(node, (ast.Attribute,
                                                ast.Subscript))
                else node.func)
    return isinstance(node, ast.Name) and node.id == name


def _mentions_peers(node: ast.AST) -> bool:
    """True when the expression mentions a peer/controller collection."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and (
                sub.attr == "peers" or "controller" in sub.attr):
            return True
        if isinstance(sub, ast.Name) and (
                sub.id == "peers" or "controller" in sub.id):
            return True
    return False


def _site(module: Module, node: ast.AST) -> str:
    return f"{module.path}:{getattr(node, 'lineno', 0)}"


# ------------------------------------------------------------ inference
class _Inference:
    def __init__(self, modules: Sequence[Module],
                 graph: Optional[CallGraph] = None):
        self.modules = [m for m in modules if in_scope(m)]
        scoped_paths = {m.path for m in self.modules}
        if graph is not None and all(
                fn.module.path in scoped_paths
                for fn in graph.functions.values()):
            self.graph = graph
        else:
            self.graph = CallGraph.build(self.modules)
        self.classes: Dict[str, ClassOwn] = {}
        self.by_bare: Dict[str, List[str]] = {}
        self.edges: List[Edge] = []
        self.problems: List[Problem] = []
        #: port method name -> [(port, class qualname)]
        self.port_methods: Dict[str, List[Tuple[str, str]]] = {}

    # -- collection --------------------------------------------------------
    def _collect(self) -> None:
        for module in self.modules:
            self._collect_module(module)
        self._inherit_declarations()
        self._collect_state()

    def _collect_module(self, module: Module) -> None:
        def walk(body, prefix: str) -> None:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    qual = f"{prefix}.{node.name}"
                    self._collect_class(module, node, qual)
                    walk(node.body, qual)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    walk(node.body, f"{prefix}.{node.name}")
        walk(module.tree.body, module.package)

    def _collect_class(self, module: Module, node: ast.ClassDef,
                       qual: str) -> None:
        declared, domain, key = DECL_NONE, "", ""
        for dec in node.decorator_list:
            name, call = _decorator_name(dec)
            if name == "shared":
                declared = DECL_SHARED
                break
            if name == "shard_local":
                declared, domain, key = DECL_LOCAL, "channel", "channel_id"
                if call is not None:
                    for kw in call.keywords:
                        if kw.arg == "domain" and isinstance(
                                kw.value, ast.Constant):
                            domain = str(kw.value.value)
                        elif kw.arg == "key" and isinstance(
                                kw.value, ast.Constant):
                            key = str(kw.value.value)
                break
        ports: Dict[str, str] = {}
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for dec in item.decorator_list:
                name, call = _decorator_name(dec)
                if name == "rendezvous" and call is not None and call.args \
                        and isinstance(call.args[0], ast.Constant):
                    ports[item.name] = str(call.args[0].value)
        cls = ClassOwn(qualname=qual, bare=node.name, module=module,
                       node=node, declared=declared, domain=domain,
                       key=key, ports=ports,
                       bases=list(self.graph.class_bases.get(qual, ())))
        self.classes[qual] = cls
        self.by_bare.setdefault(node.name, []).append(qual)
        for method, port in ports.items():
            self.port_methods.setdefault(method, []).append((port, qual))

    def _inherit_declarations(self) -> None:
        """Propagate declarations (and ports) through in-graph bases."""
        changed = True
        while changed:
            changed = False
            for cls in self.classes.values():
                for bare in cls.bases:
                    for base_qual in self.by_bare.get(bare, ()):
                        base = self.classes[base_qual]
                        if cls.declared == DECL_NONE \
                                and base.declared != DECL_NONE:
                            cls.declared = base.declared
                            cls.domain = base.domain
                            cls.key = base.key
                            cls.inherited = True
                            changed = True
                        for method, port in base.ports.items():
                            if method not in cls.ports:
                                cls.ports[method] = port
                                changed = True

    def _collect_state(self) -> None:
        for qual, cls in self.classes.items():
            fns = self.graph.classes.get(qual, [])
            for fn in fns:
                cls.methods.add(fn.name)
                for attr, writes in fn.attr_writes.items():
                    kinds = {kind for _n, kind in writes}
                    cls.attrs.setdefault(attr, set()).update(kinds)
                    if fn.name != "__init__" or kinds - {"assign"}:
                        cls.mutable_attrs.add(attr)
                if fn.name == "__init__":
                    self._collect_attr_types(cls, fn)
            cls.config_attrs = set(cls.attrs) - cls.mutable_attrs
            # Fold base-class state into the resolution tables (the
            # (MC)² controller inherits the WPQ machinery).
            for bare in cls.bases:
                for base_qual in self.by_bare.get(bare, ()):
                    base = self.classes[base_qual]
                    for attr, kinds in base.attrs.items():
                        cls.attrs.setdefault(attr, set()).update(kinds)
                    cls.mutable_attrs |= base.mutable_attrs
                    cls.config_attrs |= (base.config_attrs
                                         - cls.mutable_attrs)
                    for attr, tname in base.attr_types.items():
                        cls.attr_types.setdefault(attr, tname)
                    cls.methods |= base.methods

    def _collect_attr_types(self, cls: ClassOwn, init: FunctionNode) -> None:
        """``self.X`` value classes from ``__init__`` construction and
        annotated-parameter passthrough."""
        params: Dict[str, str] = {}
        args = getattr(init.node, "args", None)
        if isinstance(args, ast.arguments):
            for a in list(args.posonlyargs) + list(args.args) \
                    + list(args.kwonlyargs):
                name = _ann_name(a.annotation)
                if name:
                    params[a.arg] = name
        for node in ast.walk(init.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                ann = _ann_name(node.annotation)
                if ann and isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    cls.attr_types[target.attr] = ann
                    continue
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self") or value is None:
                continue
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name) \
                    and value.func.id in self.by_bare:
                cls.attr_types[target.attr] = value.func.id
            elif isinstance(value, ast.Name) and value.id in params:
                cls.attr_types[target.attr] = params[value.id]

    # -- lattice evidence --------------------------------------------------
    def _channel_evidence(self, cls: ClassOwn) -> str:
        """Why inference believes ``cls`` is wired to one channel."""
        fns = self.graph.classes.get(cls.qualname, [])
        for fn in fns:
            if "channel_id" in fn.attr_writes \
                    or "channel_id" in fn.attr_reads:
                return "accesses self.channel_id"
            if fn.name == "__init__":
                args = getattr(fn.node, "args", None)
                if isinstance(args, ast.arguments) and any(
                        a.arg == "channel_id" for a in args.args):
                    return "__init__ takes channel_id"
        return ""

    def _owned_fixed_point(self) -> Dict[str, str]:
        """Qualname -> evidence for every provably-owned class.

        Seeds with direct ``channel_id`` wiring, then closes over base
        inheritance and construction-inside-an-owned-class (the BPQ,
        the DRAM channel, bank objects inherit their constructor's
        owner).  Declared-cpu classes are accepted as seeds: the cpu
        shard is singular, so membership needs no key wiring.
        """
        evidence: Dict[str, str] = {}
        for qual, cls in self.classes.items():
            why = self._channel_evidence(cls)
            if why:
                evidence[qual] = why
            elif cls.declared == DECL_LOCAL and cls.domain != "channel":
                evidence[qual] = f"declared {cls.domain}-domain"
        changed = True
        while changed:
            changed = False
            for qual, cls in self.classes.items():
                if qual in evidence:
                    continue
                for bare in cls.bases:
                    for base_qual in self.by_bare.get(bare, ()):
                        if base_qual in evidence:
                            evidence[qual] = (f"inherits from "
                                              f"{self.classes[base_qual].bare}")
                            changed = True
                if qual in evidence:
                    continue
                # Constructed inside an owned class's methods.
                for owner_qual, owner in self.classes.items():
                    if owner_qual not in evidence \
                            or owner.declared != DECL_LOCAL:
                        continue
                    for fn in self.graph.classes.get(owner_qual, []):
                        for site in fn.calls:
                            if not site.is_method \
                                    and site.bare == cls.bare:
                                evidence[qual] = (f"constructed by "
                                                  f"{owner.bare}")
                                changed = True
        return evidence

    # -- per-class rule checks ---------------------------------------------
    def _check_declarations(self) -> None:
        evidence = self._owned_fixed_point()
        for qual in sorted(self.classes):
            cls = self.classes[qual]
            channel_why = self._channel_evidence(cls)
            if cls.declared == DECL_NONE:
                if cls.attrs:
                    self.problems.append(Problem(
                        code="MC2704", module=cls.module, node=cls.node,
                        message=(
                            f"class {cls.bare} has mutable instance state "
                            f"({', '.join(sorted(cls.attrs)[:4])}"
                            f"{', ...' if len(cls.attrs) > 4 else ''}) but "
                            f"no shard-ownership declaration — annotate it "
                            f"with @shard_local or @shared from "
                            f"repro.sim.shard so the engine split knows "
                            f"which loop owns it")))
                continue
            if cls.declared == DECL_SHARED and channel_why:
                self.problems.append(Problem(
                    code="MC2705", module=cls.module, node=cls.node,
                    message=(
                        f"class {cls.bare} is declared @shared but "
                        f"{channel_why} — per-channel wiring means its "
                        f"instances belong to one shard; declare it "
                        f"@shard_local (or drop the channel coupling)")))
            elif cls.declared == DECL_LOCAL and not cls.inherited:
                why = evidence.get(qual, "")
                cls.owned_evidence = why
                if cls.domain == "channel" and not why:
                    self.problems.append(Problem(
                        code="MC2705", module=cls.module, node=cls.node,
                        message=(
                            f"class {cls.bare} is declared "
                            f"@shard_local (channel) but inference finds "
                            f"no ownership evidence — no {cls.key} "
                            f"wiring, no owned base class, and no "
                            f"construction inside an owned class; "
                            f"declare it @shared or wire its owner")))
                elif cls.domain != "channel" and channel_why:
                    self.problems.append(Problem(
                        code="MC2705", module=cls.module, node=cls.node,
                        message=(
                            f"class {cls.bare} is declared "
                            f"@shard_local(domain=\"{cls.domain}\") but "
                            f"{channel_why} — channel wiring contradicts "
                            f"the {cls.domain} domain; use the default "
                            f"channel domain")))

    # -- receiver typing ---------------------------------------------------
    def _receiver_types(self, fn: FunctionNode) -> Dict[str, str]:
        """Local name -> "param" | "self" | "cross" | "rdv"."""
        types: Dict[str, str] = {}
        args = getattr(fn.node, "args", None)
        if isinstance(args, ast.arguments):
            for a in list(args.posonlyargs) + list(args.args) \
                    + list(args.kwonlyargs):
                if a.arg != "self":
                    types[a.arg] = "param"

        def classify(value: ast.AST) -> str:
            if isinstance(value, ast.Call):
                func = value.func
                bare = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name)
                        else "")
                if bare in CROSS_OWNER_FNS:
                    return "cross"
                if isinstance(func, ast.Attribute) \
                        and bare in self.port_methods:
                    root = func.value
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if isinstance(root, ast.Name) \
                            and types.get(root.id) == "cross":
                        return "rdv"
                if _rooted_at(value, "self"):
                    return "self"
            elif isinstance(value, ast.Subscript):
                if _mentions_peers(value.value):
                    return "cross"
                if _rooted_at(value.value, "self"):
                    return "self"
            elif isinstance(value, ast.Attribute):
                root = value.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(root, ast.Name) \
                        and types.get(root.id) == "cross":
                    return "cross"
                if _rooted_at(value, "self"):
                    return "self"
            return ""

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                kind = classify(node.value)
                if kind:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = kind
            elif isinstance(node, ast.For):
                if _mentions_peers(node.iter) \
                        and isinstance(node.target, ast.Name):
                    types[node.target.id] = "cross"
            elif isinstance(node, ast.comprehension):
                if _mentions_peers(node.iter) \
                        and isinstance(node.target, ast.Name):
                    types[node.target.id] = "cross"
        return types

    # -- member resolution -------------------------------------------------
    def _local_quals(self) -> List[str]:
        return [q for q in sorted(self.classes)
                if self.classes[q].declared == DECL_LOCAL]

    def _resolve_member(self, context: Optional[str],
                        member: str) -> Tuple[str, str, str]:
        """Resolve ``member`` on a cross-owner receiver.

        ``context`` narrows resolution to one class bare name (set when
        a chain stepped through a typed attribute); ``None`` means any
        owned class.  Returns ``(kind, detail, class_bare)`` where kind
        is ``port`` (detail = port name), ``key``, ``attr`` (detail =
        value class bare name or ""), ``method``, or ``miss``.
        """
        if context is not None:
            quals = [q for q in self.by_bare.get(context, ())
                     if q in self.classes]
        else:
            quals = self._local_quals()
        for qual in quals:
            cls = self.classes[qual]
            if member in cls.ports:
                return "port", cls.ports[member], cls.bare
        for qual in quals:
            cls = self.classes[qual]
            if cls.declared == DECL_LOCAL and member == cls.key:
                return "key", "", cls.bare
        for qual in quals:
            cls = self.classes[qual]
            if member in cls.attrs:
                return "attr", cls.attr_types.get(member, ""), cls.bare
        for qual in quals:
            cls = self.classes[qual]
            if member in cls.methods:
                return "method", "", cls.bare
        return "miss", "", ""

    def _value_declared(self, bare: str) -> str:
        for qual in self.by_bare.get(bare, ()):
            return self.classes[qual].declared
        return DECL_NONE

    def _attr_mutable(self, owner_bare: str, member: str) -> bool:
        for qual in self.by_bare.get(owner_bare, ()):
            return member in self.classes[qual].mutable_attrs
        return False

    # -- the cross-access walk ---------------------------------------------
    def _check_accesses(self) -> None:
        for qual in self._local_quals():
            for fn in self.graph.classes.get(qual, []):
                self._check_function(self.classes[qual], fn)

    def _check_function(self, cls: ClassOwn, fn: FunctionNode) -> None:
        types = self._receiver_types(fn)
        cross_names = {n for n, t in types.items() if t == "cross"}
        parents: Dict[int, ast.AST] = {}
        for node in ast.walk(fn.node):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node

        for node in ast.walk(fn.node):
            # MC2702: storing a cross-owner reference into own state.
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and self._leaks_cross(node.value, cross_names)):
                        self.problems.append(Problem(
                            code="MC2702", module=fn.module, node=node,
                            message=(
                                f"{cls.bare}.{fn.name} stores a "
                                f"cross-owner reference into "
                                f"self.{target.attr} — a shard must not "
                                f"retain handles to another shard's "
                                f"objects; look the owner up per access "
                                f"or route the data through a "
                                f"@rendezvous port")))
            # Cross-owner attribute chains.
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in cross_names):
                self._check_chain(cls, fn, node, parents)

        # MC2703: a rendezvous port scheduled off the rendezvous phase.
        port_table = cls.ports
        for site in fn.schedule_sites:
            port = port_table.get(site.handler)
            if port is None:
                continue
            if site.phase is not None and site.phase != RENDEZVOUS_PHASE:
                self.problems.append(Problem(
                    code="MC2703", module=fn.module, node=site.node,
                    message=(
                        f"rendezvous port '{port}' "
                        f"({cls.bare}.{site.handler}) is scheduled at "
                        f"phase {site.phase}; cross-shard events must "
                        f"run in the shared-rendezvous phase "
                        f"{RENDEZVOUS_PHASE} so every shard's "
                        f"same-cycle work is complete — pass "
                        f"phase={RENDEZVOUS_PHASE}")))

    def _leaks_cross(self, value: ast.AST, cross_names: Set[str]) -> bool:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name) and sub.id in cross_names:
                return True
            if isinstance(sub, ast.Call):
                func = sub.func
                bare = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name)
                        else "")
                if bare in CROSS_OWNER_FNS:
                    return True
        return False

    def _check_chain(self, cls: ClassOwn, fn: FunctionNode,
                     node: ast.Attribute,
                     parents: Dict[int, ast.AST]) -> None:
        """Walk one attribute chain rooted at a cross-owner name."""
        recv = node.value.id if isinstance(node.value, ast.Name) else "?"
        via = [recv]
        context: Optional[str] = None
        while True:
            member = node.attr
            via.append(member)
            parent = parents.get(id(node))
            is_store = isinstance(node.ctx, (ast.Store, ast.Del))
            is_called = (isinstance(parent, ast.Call)
                         and parent.func is node)
            kind, detail, owner_bare = self._resolve_member(context, member)

            if kind == "port":
                self.edges.append(Edge(
                    site=_site(fn.module, node), via=".".join(via),
                    port=detail, target=f"{owner_bare}.{member}",
                    caller=cls.qualname))
                return
            if kind == "key" and not is_store and not is_called:
                return  # owner-identity probe (peer.channel_id == ch)
            if kind == "method":
                self.problems.append(Problem(
                    code="MC2701", module=fn.module, node=node,
                    message=(
                        f"{cls.bare}.{fn.name} calls "
                        f"{owner_bare}.{member} on another shard's "
                        f"instance, but {member} is not a declared "
                        f"rendezvous port — decorate it with "
                        f"@rendezvous(...) in repro.sim.shard terms, or "
                        f"move the call to the owning shard")))
                return
            if kind == "attr":
                if is_store:
                    self.problems.append(Problem(
                        code="MC2701", module=fn.module, node=node,
                        message=(
                            f"{cls.bare}.{fn.name} writes "
                            f"{owner_bare}.{member} on another shard's "
                            f"instance outside a declared rendezvous — "
                            f"route the mutation through a @rendezvous "
                            f"port on {owner_bare} so the engine split "
                            f"can serialize it")))
                    return
                if self._attr_mutable(owner_bare, member):
                    self.problems.append(Problem(
                        code="MC2701", module=fn.module, node=node,
                        message=(
                            f"{cls.bare}.{fn.name} reads mutable "
                            f"cross-shard state {owner_bare}.{member} "
                            f"outside a declared rendezvous — same-cycle "
                            f"cross-shard reads need a @rendezvous "
                            f"probe port (like wpq_fullness) to be "
                            f"schedule-order safe")))
                    return
                # Immutable configuration: reading is safe.  A chain
                # continuing into a shared-declared value stays safe;
                # one continuing into another owned class must end in a
                # port there.
                value_decl = self._value_declared(detail) if detail \
                    else DECL_NONE
                if value_decl == DECL_SHARED:
                    return
                if isinstance(parent, ast.Attribute) \
                        and parent.value is node:
                    context = detail if value_decl == DECL_LOCAL else None
                    node = parent
                    continue
                return  # bare config read (value type unknown or local)
            # Unresolved member: flag in-place mutation, stay silent on
            # reads we cannot prove anything about.
            if is_called and member in _MUTATOR_METHODS:
                self.problems.append(Problem(
                    code="MC2701", module=fn.module, node=node,
                    message=(
                        f"{cls.bare}.{fn.name} mutates another shard's "
                        f"object in place via .{member}() outside a "
                        f"declared rendezvous — route the mutation "
                        f"through a @rendezvous port")))
            return

    # -- entry point -------------------------------------------------------
    def run(self) -> OwnershipReport:
        self._collect()
        self._check_declarations()
        self._check_accesses()
        self.problems.sort(key=lambda p: (
            p.module.path, getattr(p.node, "lineno", 0), p.code))
        self.edges.sort(key=lambda e: (e.site, e.via))
        return OwnershipReport(classes=self.classes, edges=self.edges,
                               problems=self.problems)


def analyze(modules: Sequence[Module],
            graph: Optional[CallGraph] = None) -> OwnershipReport:
    """Run the ownership inference over ``modules``.

    ``graph`` may pass in an existing :class:`CallGraph` covering
    exactly the in-scope modules; otherwise one is built.
    """
    return _Inference(modules, graph=graph).run()


# -------------------------------------------------------------- reports
def report_json(report: OwnershipReport) -> str:
    counts = report.counts()
    payload = {
        "summary": dict(counts, ok=report.ok),
        "shards": report.shards(),
        "shared": sorted(q for q, c in report.classes.items()
                         if c.declared == DECL_SHARED),
        "unknown": report.unknown_attrs(),
        "unknown_classes": report.unknown_classes(),
        "edges": [
            {"site": e.site, "via": e.via, "port": e.port,
             "target": e.target, "caller": e.caller}
            for e in report.edges
        ],
        "problems": [
            {"code": p.code, "site": p.site(), "message": p.message}
            for p in report.problems
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_text(report: OwnershipReport) -> str:
    lines: List[str] = []
    counts = report.counts()
    lines.append("shard-ownership report")
    lines.append(
        f"  {counts['local_channel_classes']} channel-local, "
        f"{counts['local_cpu_classes']} cpu-local, "
        f"{counts['shared_classes']} shared, "
        f"{counts['unknown_classes']} unknown class(es); "
        f"{counts['edges']} rendezvous edge(s), "
        f"{counts['problems']} problem(s)")
    for domain, classes in sorted(report.shards().items()):
        lines.append(f"shard domain '{domain}':")
        for qual, attrs in sorted(classes.items()):
            cls = report.classes[qual]
            ports = ", ".join(sorted(set(cls.ports.values())))
            suffix = f"  ports: {ports}" if ports else ""
            lines.append(f"  {qual}{suffix}")
            if attrs:
                lines.append(f"    state: {', '.join(attrs)}")
    shared = sorted(q for q, c in report.classes.items()
                    if c.declared == DECL_SHARED)
    if shared:
        lines.append("shared: " + ", ".join(shared))
    if report.unknown_attrs():
        lines.append("unknown (annotate these):")
        for entry in report.unknown_attrs():
            lines.append(f"  {entry}")
    if report.edges:
        lines.append("rendezvous edges:")
        seen = set()
        for e in report.edges:
            key = (e.site, e.via)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"  {e.site}: {e.via} -> {e.target} "
                         f"[{e.port}]")
    for p in report.problems:
        lines.append(f"problem {p.code} at {p.site()}: {p.message}")
    lines.append("partition " + ("PROVEN" if report.ok else "NOT proven"))
    return "\n".join(lines) + "\n"
