"""The second pass of a `.gfo` load, which ``dsl.parse`` runs on a clean parse
only: the parser's records linked into a model, each fault recorded by token
index in the load's one fault list (see dsl.py)."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import fields

from .chrono import Chronoid, Time, coord_str, fmt_value, inner_boundary
from .errors import OutOfExtent, ZeroOrNegativeDuration
from .functions import INDIVIDUAL, FactPattern, FunctionSpec, PropertyConstraint, SituationConcept
from .model import ISOLATED, Continuant, Fact, Model, Presential, Process, PropertyDef, Situation
from .model import Support, ValueDomain


class _Linker:
    """The second pass: resolves the parser's records into the model's stores.

    ``register`` reports every name declared twice, and maps a name declared
    as two kinds of individual to None in ``entity_decls``.  Then each stage
    builds and checks every record of its kind in source order, reports
    every fault it finds, and builds each declaration from its tokens as
    written.  It leaves a value out only where a later check reads it, so
    that a rejected declaration drives no follow-on diagnostic: ``store``
    maps a name declared twice to None, and a check reads only what is stored.
    Any diagnostic discards the model.  Entities are built with positional
    arguments, which a frozen dataclass binds faster than keywords.
    """

    def __init__(self, decls: list, tokens: list, found: list):
        self.decls = decls
        self.tokens = tokens
        self.found = found  # the load's faults, empty on a clean parse: see _lex
        self.groups: dict = defaultdict(list)  # keyword -> its records in source order
        self.entity_decls: dict = {}  # name -> first record of an individual, None: see register

    def diag(self, i: int, code: str, message: str) -> None:
        self.found.append((i, code, message, 0))

    def store(self, table: dict, name: str, value) -> None:
        """Store a declaration built from its record.  A name declared twice, a
        chronoid of no duration and a presential of no boundary map to None,
        which no check reads: a name in ``table`` is declared all the same."""
        table[name] = None if name in table else value

    # -- namespace registration ------------------------------------------------

    def register(self) -> None:
        # keyword -> its namespace; an exe or instance record declares no id
        tables = dict.fromkeys(["exe", "requirement-instance", "goal-instance"])
        tables.update(property={}, chronoid={}, function={})
        conflicts = []  # names of two kinds of individual: neither kind is checked against
        for record in self.decls:
            kind, name_at = record[0], record[1]
            self.groups[kind].append(record)
            table = tables.get(kind, self.entity_decls)
            if table is None:
                continue
            name = self.tokens[name_at].text
            prior = table.setdefault(name, record)
            if prior is record:
                continue
            if prior[0] == kind:
                self.diag(name_at, "duplicate-id", f"{kind} {name!r} is declared twice")
            else:
                self.diag(
                    name_at,
                    "kind-conflict",
                    f"{name!r} is already declared as a {prior[0]}, cannot also be a {kind}",
                )
                conflicts.append(name)
        self.entity_decls.update(dict.fromkeys(conflicts))

    # -- reference helpers -------------------------------------------------------

    def resolve_entity(self, ref: int, kind: str | None = None) -> bool:
        text = self.tokens[ref].text
        declared = self.entity_decls.get(text)
        if declared is None:
            if text not in self.entity_decls:  # else a name of two kinds, reported where declared
                self.diag(ref, "dangling-reference", f"{text!r} is not declared")
            return False
        if kind is not None and declared[0] != kind:
            self.diag(
                ref,
                "kind-conflict",
                f"{text!r} is a {declared[0]}, but a {kind} is required here",
            )
            return False
        return True

    def resolve_chronoid(self, ref: int):
        text = self.tokens[ref].text
        ch = self.chronoids.get(text)
        if ch is None and text not in self.chronoids:  # a rejected one was reported
            self.diag(ref, "dangling-reference", f"chronoid {text!r} is not declared")
        return ch

    def check_value(self, pdef: PropertyDef, i: int) -> bool:
        value = self.tokens[i].value
        if not pdef.domain.admits(value):
            self.diag(
                i,
                "bad-value",
                f"{str(fmt_value(value))!r} is not in the value domain of "
                f"property {pdef.name!r}",
            )
            return False
        return True

    def resolve_property(self, ref: int):
        text = self.tokens[ref].text
        pdef = self.property_defs.get(text)
        if pdef is None and text not in self.property_defs:  # a rejected one was reported
            self.diag(ref, "unknown-id", f"property {text!r} is not declared")
        return pdef

    def resolve_value(self, prop: int, value: int) -> None:
        """Resolve a property name, then check the value it is given."""
        pdef = self.resolve_property(prop)
        if pdef is not None:
            self.check_value(pdef, value)

    def new_sample(self, i: int, ch, seen, what: str):
        """The coordinate of token ``i`` when it lies in ``ch`` and is not in
        ``seen`` yet; otherwise reports why not and returns None."""
        t = self.tokens[i].value
        if ch is not None and not ch.contains(t):
            self.diag(i, "out-of-extent", ch.outside(t))
            return None
        if t in seen:
            self.diag(i, "duplicate-id", f"{what} at {coord_str(t)} is declared twice")
            return None
        return t

    # -- stages --------------------------------------------------------------------

    def build_properties(self) -> None:
        self.property_defs = {}
        for _, name_at, domain_kind, symbols, support_kind, radius_at in self.groups["property"]:
            radius = None
            if radius_at is not None:
                radius = self.tokens[radius_at].value
                if radius <= 0:
                    self.diag(radius_at, "bad-value", "window radius must be strictly positive")
            name, domain = self.tokens[name_at].text, ValueDomain(domain_kind, frozenset(symbols))
            pdef = PropertyDef(name, domain, Support(support_kind, radius))
            self.store(self.property_defs, name, pdef)

    def build_chronoids(self) -> None:
        self.chronoids = {}
        for _, name_at, left, right in self.groups["chronoid"]:
            name, ch = self.tokens[name_at].text, None
            try:
                ch = Chronoid(name, self.tokens[left].value, self.tokens[right].value)
            except ZeroOrNegativeDuration as err:
                self.diag(left, "zero-duration", str(err))
            self.store(self.chronoids, name, ch)

    def _boundary_at(self, chron: int, i: int):
        ch = self.chronoids.get(self.tokens[chron].text)
        if ch is None:
            return self.resolve_chronoid(chron)  # reports why, and is None
        try:
            return inner_boundary(ch, self.tokens[i].value)
        except OutOfExtent as err:
            self.diag(i, "out-of-extent", str(err))
            return None

    def build_presentials(self) -> None:
        self.presentials = {}
        tokens, property_defs = self.tokens, self.property_defs
        for _, name_at, chron, t, material, assigned in self.groups["presential"]:
            name = tokens[name_at].text
            boundary = self._boundary_at(chron, t)
            # a rejected entry is left out: the duplicate check reads this map
            valuation = {}
            for prop, value in assigned:
                # each rule is tested in place; a failing one calls for its diagnostic
                text, v = tokens[prop].text, tokens[value].value
                pdef = property_defs.get(text)
                if pdef is None:
                    self.resolve_property(prop)
                elif pdef.support.kind != ISOLATED:
                    self.diag(
                        prop,
                        "kind-conflict",
                        f"property {text!r} has {pdef.support.kind} support and "
                        "cannot be valued at a single boundary",
                    )
                elif text in valuation:
                    self.diag(
                        prop, "duplicate-id", f"property {text!r} is valued twice on {name!r}"
                    )
                elif not pdef.domain.admits(v):
                    self.check_value(pdef, value)
                else:
                    valuation[text] = v
            pres = None if boundary is None else Presential(name, boundary, valuation, material)
            self.store(self.presentials, name, pres)

    def _sample_map(self, name_at: int, entries, ch, keyword: str) -> dict:
        # a rejected entry is left out: the duplicate check reads this map
        tokens, presentials, declared = self.tokens, self.presentials, self.entity_decls
        out: dict = {}
        sampled = set()  # coordinates off the clean path: a rejected target is no missing endpoint
        owner = None if ch is None else ch.id
        for i, target in entries:
            # the clean path is tested in place, the calls below report a failure; a
            # presential's boundary on ch lies in ch, since inner_boundary built it
            t, name = tokens[i].value, tokens[target].text
            pres = presentials.get(name)
            if (pres is not None and pres.at.owner == owner and pres.at.coordinate == t
                    and t not in out and declared[name]):  # a presential's, or None: see register
                out[t] = name
                continue
            t = self.new_sample(i, ch, out, keyword)
            if t is None:
                continue
            sampled.add(t)
            if not self.resolve_entity(target, "presential"):
                continue
            if pres is not None and pres.at.coordinate != t:
                self.diag(
                    target,
                    "coordinate-mismatch",
                    f"presential {name!r} is at {coord_str(pres.at.coordinate)}, "
                    f"not at {coord_str(t)}",
                )
                continue
            out[t] = name
        if ch is not None:
            for endpoint in (ch.left, ch.right):
                if endpoint not in out and endpoint not in sampled:
                    self.diag(
                        name_at,
                        "missing-endpoint",
                        f"{tokens[name_at].text!r} has no {keyword} at the endpoint "
                        f"{coord_str(endpoint)}",
                    )
        return out

    def build_processes(self) -> None:
        self.processes = {}
        tokens = self.tokens
        for _, name_at, chron, boundaries, paths in self.groups["process"]:
            name = tokens[name_at].text
            ch = self.resolve_chronoid(chron)
            # a rejected trajectory or sample is left out: the duplicate checks read these maps
            trajectories: dict = {}
            for prop, samples in paths:
                pdef = self.resolve_property(prop)
                if pdef is None:
                    continue
                text = tokens[prop].text
                if pdef.support.kind == ISOLATED:
                    self.diag(
                        prop,
                        "kind-conflict",
                        f"property {text!r} has isolated support; its values live "
                        "on presentials, not trajectories",
                    )
                    continue
                if text in trajectories:
                    self.diag(prop, "duplicate-id", f"trajectory for {text!r} is declared twice")
                    continue
                points: dict = {}
                admits = pdef.domain.admits
                for i, value in samples:
                    # the clean path is tested in place; the calls below report a failure
                    t, v = tokens[i].value, tokens[value].value
                    if (ch is not None and ch.left <= t <= ch.right and t not in points
                            and admits(v)):
                        points[t] = v
                    elif (self.new_sample(i, ch, points, "trajectory sample") is not None
                            and self.check_value(pdef, value)):
                        points[t] = v
                trajectories[text] = tuple(sorted(points.items()))
            boundary_map = self._sample_map(name_at, boundaries, ch, "boundary")
            self.store(self.processes, name, Process(name, ch, boundary_map, trajectories))

    def build_continuants(self) -> None:
        self.continuants = {}
        for _, name_at, chron, material, exhibits in self.groups["continuant"]:
            name = self.tokens[name_at].text
            ch = self.resolve_chronoid(chron)
            exhibit_map = self._sample_map(name_at, exhibits, ch, "exhibits")
            self.store(self.continuants, name, Continuant(name, ch, exhibit_map, material))

    def build_facts(self) -> None:
        self.facts = {}
        tokens, declared = self.tokens, self.entity_decls
        for _, name_at, relator_at, args in self.groups["fact"]:
            name = tokens[name_at].text
            entities = args
            relator = tokens[relator_at].text
            literal = "literal arguments are only allowed in property facts"
            if relator in self.property_defs:
                # property fact: (subject entity, literal value); a rejected property checks none
                pdef = self.property_defs[relator]
                if len(args) != 2:
                    self.diag(
                        relator_at,
                        "bad-value",
                        f"a property fact takes (subject, value); "
                        f"{relator!r} got {len(args)} argument(s)",
                    )
                    entities = ()
                else:
                    entities = args[:1]
                    literal = "the subject of a property fact must be an entity"
                    if pdef is not None and not pdef.domain.admits(tokens[args[1]].value):
                        self.check_value(pdef, args[1])
            for arg in entities:
                if isinstance(tokens[arg].value, Time):  # a rational literal
                    self.diag(arg, "bad-value", literal)
                elif tokens[arg].text not in declared:  # the clean path, tested in place
                    self.resolve_entity(arg)
            fact = Fact(name, relator, tuple([tokens[arg].value for arg in args]))
            self.store(self.facts, name, fact)

    def build_situations(self) -> None:
        self.situations = {}
        tokens, declared = self.tokens, self.entity_decls
        used_facts = set()  # names contained: no orphans, even of a name of two kinds
        for _, name_at, chron, t, founded, contains, participants in self.groups["situation"]:
            name = tokens[name_at].text
            if t is None:
                extent = self.resolve_chronoid(chron)
            else:
                extent = self._boundary_at(chron, t)
            if founded is not None:
                self.resolve_entity(founded, "process")
            # members test their clean path in place; resolve_entity reports a failure
            constituents = frozenset([tokens[fact].text for fact in contains])
            used_facts |= constituents
            for fact in contains:
                record = declared.get(tokens[fact].text)
                if record is None or record[0] != "fact":
                    self.resolve_entity(fact, "fact")
            for entity in participants:
                if tokens[entity].text not in declared:
                    self.resolve_entity(entity)
            self.store(self.situations, name, Situation(
                name, extent, constituents,
                frozenset([tokens[entity].text for entity in participants]),
                None if founded is None else tokens[founded].text,
            ))
        # facts are properties of processes only through situations; a fact
        # contained in no situation has nothing to be founded on
        for _, name_at, _, _ in self.groups["fact"]:
            name = tokens[name_at].text
            if name not in used_facts:
                self.diag(
                    name_at,
                    "orphan-fact",
                    f"fact {name!r} is not a constituent of any situation",
                )

    def _concept(self, fn: int, which: str, items: list | None):
        tokens = self.tokens
        if not items:
            self.diag(
                fn,
                "empty-concept",
                f"function {tokens[fn].text!r} needs a non-empty '"
                + ("requires" if which == "req" else "achieves")
                + "' block",
            )
            return None
        patterns = set()
        constraints = set()
        for item in items:
            if len(item) == 2:  # fact relator(arg, ...)
                relator, args = item
                args = tuple([tokens[i].value for i in args])
                patterns.add(FactPattern(tokens[relator].text, args))
                continue
            entity, prop, value = item
            self.resolve_entity(entity)
            self.resolve_value(prop, value)
            constraints.add(
                PropertyConstraint(tokens[entity].text, tokens[prop].text, tokens[value].value)
            )
        return SituationConcept(
            required_facts=frozenset(patterns),
            required_props=frozenset(constraints),
            name=f"{tokens[fn].text}.{which}",
        )

    def build_functions(self) -> None:
        self.functions = {}
        tokens = self.tokens
        for _, name_at, kind, bearer, labels, req, goal, assigned in self.groups["function"]:
            name = tokens[name_at].text
            if bearer is not None:
                self.resolve_entity(bearer)
            elif kind == INDIVIDUAL:
                self.diag(
                    name_at,
                    "dangling-reference",
                    f"individual function {name!r} must name a bearer",
                )
            for prop, value in assigned:
                self.resolve_value(prop, value)
            fitem = [(tokens[prop].text, tokens[value].value) for prop, value in assigned]
            self.store(self.functions, name, FunctionSpec(
                id=name,
                req=self._concept(name_at, "req", req),
                goal=self._concept(name_at, "goal", goal),
                labels=frozenset(labels),
                fitem=tuple(sorted(fitem, key=lambda c: (c[0], str(c[1])))),
                kind=kind,
                bearer=None if bearer is None else tokens[bearer].text,
            ))

    def build_assertions(self) -> None:
        tokens = self.tokens
        exe = []
        for _, x, p in self.groups["exe"]:
            self.resolve_entity(x)
            self.resolve_entity(p, "process")
            exe.append((tokens[x].text, tokens[p].text))
        instances: dict = {"requirement-instance": {}, "goal-instance": {}}
        for keyword, found in instances.items():
            for _, fn_at, sit in self.groups[keyword]:
                fn = tokens[fn_at].text
                if fn not in self.functions:
                    self.diag(fn_at, "unknown-id", f"function {fn!r} is not declared")
                    continue  # one diagnostic per cause: the situation is not resolved
                self.resolve_entity(sit, "situation")
                found.setdefault(fn, []).append(tokens[sit].text)
        self.exe_assertions = frozenset(exe)
        self.requirement_instances, self.goal_instances = (
            {fn: frozenset(sits) for fn, sits in found.items()} for found in instances.values()
        )

    def link(self) -> Model | None:
        self.register()
        self.build_properties()
        self.build_chronoids()
        self.build_presentials()
        self.build_processes()
        self.build_continuants()
        self.build_facts()
        self.build_situations()
        self.build_functions()
        self.build_assertions()
        if self.found:
            return None
        return Model(**{field.name: getattr(self, field.name) for field in fields(Model)})
