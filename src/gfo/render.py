"""Canonical rendering of a store, and the command line's JSON writer,
loaded on first use (docs/semantics.md, "Cold start").

``model_to_json`` is the one canonical view of a store: map entries in
coordinate order, sets sorted, rationals normalized.  `gfo dump` prints it
as JSON and ``serialize`` as source text, declarations sorted by kind and id.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from . import dsl
from .chrono import TimeBoundary, coord_str, fmt_value
from .model import CATEGORICAL, CONCEPTUAL, NON_ISOLATED, Model


def _extent_json(extent) -> dict:
    if isinstance(extent, TimeBoundary):
        coordinate = coord_str(extent.coordinate)
        return {"kind": "boundary", "chronoid": extent.owner, "coordinate": coordinate}
    return {"kind": "chronoid", "chronoid": extent.id}


def _concept_json(concept) -> dict:
    patterns = sorted(concept.required_facts, key=lambda p: (p.relator, tuple(map(str, p.args))))
    constraints = sorted(concept.required_props, key=lambda c: (c.entity, c.prop, str(c.value)))
    return {
        "facts": [{"relator": p.relator, "args": list(map(fmt_value, p.args))} for p in patterns],
        "holds": [
            {"entity": c.entity, "property": c.prop, "value": fmt_value(c.value)}
            for c in constraints
        ],
    }


def model_to_json(m: Model) -> dict:
    """The canonical view of the whole store: `gfo dump` prints it as JSON
    and ``serialize`` as source text.

    Every rendering choice is made here, once: rationals as ``p/q``, maps and
    trajectory samples in coordinate order, sets and concept items sorted.
    Only the order of the stores' own ids is left to the printer.
    """
    return {
        "chronoids": {
            cid: {"left": coord_str(ch.left), "right": coord_str(ch.right)}
            for cid, ch in m.chronoids.items()
        },
        "properties": {
            name: {
                "domain": pdef.domain.kind,
                "symbols": sorted(pdef.domain.symbols),
                "support": pdef.support.kind,
                "window_radius": fmt_value(pdef.support.window_radius),
            }
            for name, pdef in m.property_defs.items()
        },
        "presentials": {
            pid: {
                "at": _extent_json(pres.at),
                "material": pres.material,
                "valuation": {prop: fmt_value(v) for prop, v in pres.valuation.items()},
            }
            for pid, pres in m.presentials.items()
        },
        "processes": {
            pid: {
                "extent": p.extent.id,
                "boundaries": {coord_str(t): p.boundary_map[t] for t in sorted(p.boundary_map)},
                "trajectories": {  # sorted: guard for hand-built stores only
                    prop: [[coord_str(t), fmt_value(v)] for t, v in sorted(samples)]
                    for prop, samples in p.trajectories.items()
                },
            }
            for pid, p in m.processes.items()
        },
        "continuants": {
            cid: {
                "lifetime": c.lifetime.id,
                "material": c.material,
                "exhibits": {coord_str(t): c.exhibit_map[t] for t in sorted(c.exhibit_map)},
            }
            for cid, c in m.continuants.items()
        },
        "facts": {
            fid: {"relator": f.relator, "args": [fmt_value(a) for a in f.args]}
            for fid, f in m.facts.items()
        },
        "situations": {
            sid: {
                "extent": _extent_json(s.extent),
                "founded_on": s.founded_on,
                "constituents": sorted(s.constituents),
                "participants": sorted(s.participants),
            }
            for sid, s in m.situations.items()
        },
        "functions": {
            fid: {
                "kind": fn.kind,
                "bearer": fn.bearer,
                "labels": sorted(fn.labels),
                "requires": _concept_json(fn.req),
                "achieves": _concept_json(fn.goal),
                "fitem": [[prop, fmt_value(v)] for prop, v in fn.fitem],
            }
            for fid, fn in m.functions.items()
        },
        "exe": sorted([list(pair) for pair in m.exe_assertions]),
        # the language cannot write an empty instance set, so the view has none
        "requirement_instances": {
            fn: sorted(sits) for fn, sits in m.requirement_instances.items() if sits
        },
        "goal_instances": {fn: sorted(sits) for fn, sits in m.goal_instances.items() if sits},
    }


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _args(values) -> str:
    return ", ".join(map(str, values))


def _block(head: str, lines: list) -> list:
    """``head;`` when ``lines`` is empty, else ``head {``, the lines, ``}``."""
    return [head + " {", *lines, "}"] if lines else [head + ";"]


def _at(extent: dict) -> str:
    return f"{extent['chronoid']}@{extent['coordinate']}"


def serialize(m: Model) -> str:
    """Canonical text for a model: the view of :func:`model_to_json` printed
    as source, declarations in kind and id order.

    ``parse(serialize(m))`` is store-equal to ``m``, and serialization is a
    fixed point: reparsing and reserializing reproduces the bytes.
    """
    view = dsl.model_to_json(m)  # through dsl, whose name for it perfbench's tracer wraps
    out: list = []

    for name, prop in sorted(view["properties"].items()):
        domain = prop["domain"]
        if domain == CATEGORICAL:
            domain = "categorical { " + ", ".join(prop["symbols"]) + " }"
        support = prop["support"]
        if support == NON_ISOLATED:
            support += f"({prop['window_radius']})"
        out.append(f"property {name} : {domain} {support};")

    for name, ch in sorted(view["chronoids"].items()):
        out.append(f"chronoid {name} = [{ch['left']}, {ch['right']}];")

    for name, pres in sorted(view["presentials"].items()):
        head = f"presential {name} at {_at(pres['at'])}"
        if not pres["material"]:
            head += " immaterial"
        valuation = sorted(pres["valuation"].items())
        out += _block(head, [f"  {prop} = {value};" for prop, value in valuation])

    for name, p in sorted(view["processes"].items()):
        out.append(f"process {name} extent {p['extent']} {{")
        out += [f"  boundary {t} -> {target};" for t, target in p["boundaries"].items()]
        for prop, samples in sorted(p["trajectories"].items()):
            out.append(f"  trajectory {prop} {{")
            out += [f"    {t} -> {value};" for t, value in samples]
            out.append("  }")
        out.append("}")

    for name, c in sorted(view["continuants"].items()):
        head = f"continuant {name} lifetime {c['lifetime']}"
        if not c["material"]:
            head += " immaterial"
        out.append(head + " {")
        out += [f"  exhibits {t} -> {target};" for t, target in c["exhibits"].items()]
        out.append("}")

    for name, fact in sorted(view["facts"].items()):
        out.append(f"fact {name} = {fact['relator']}({_args(fact['args'])});")

    for name, s in sorted(view["situations"].items()):
        extent = s["extent"]
        if extent["kind"] == "boundary":
            head = f"situation {name} at {_at(extent)}"
        else:
            head = f"situation {name} during {extent['chronoid']}"
        if s["founded_on"] is not None:
            head += f" founded on {s['founded_on']}"
        members = [f"  contains {fid};" for fid in s["constituents"]]
        members += [f"  participant {entity};" for entity in s["participants"]]
        out += _block(head, members)

    for name, fn in sorted(view["functions"].items()):
        head = f"function {name}"
        if fn["kind"] != CONCEPTUAL:
            head += f" {fn['kind']}"
        if fn["bearer"] is not None:
            head += f" bearer {fn['bearer']}"
        out.append(head + " {")
        out += [f'  label "{_escape(label)}";' for label in fn["labels"]]
        for keyword in ("requires", "achieves"):
            concept = fn[keyword]
            out.append(f"  {keyword} {{")
            out += [f"    fact {p['relator']}({_args(p['args'])});" for p in concept["facts"]]
            out += [
                f"    holds({c['entity']}, {c['property']}, {c['value']});"
                for c in concept["holds"]
            ]
            out.append("  }")
        if fn["fitem"]:
            out.append("  fitem {")
            out += [f"    {prop} = {value};" for prop, value in fn["fitem"]]
            out.append("  }")
        out.append("}")

    out += [f"exe({x}, {p});" for x, p in view["exe"]]
    for kind in ("requirement", "goal"):
        for fn, sits in sorted(view[f"{kind}_instances"].items()):
            out += [f"{kind}-instance({fn}, {sit});" for sit in sits]

    return "\n".join(out) + "\n"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}  # looked up by identity only


def _json_parts(value, pad: str, out: list) -> None:
    """Append ``value`` as JSON to ``out``, one item a line, each line after
    ``pad``: a newline and the current indent."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    else:  # numbers and empty containers
        out.append(json.dumps(value))


def write_json(payload, write) -> None:
    """Pass ``write`` the text ``print(json.dumps(payload, indent=2, sort_keys=True))``
    writes, in about half the time; tests/test_cli.py pins the two together on
    payloads like gfo's.  A dict is written one entry at a time, so the parts
    held at once are those of its largest entry, not of the whole document."""
    if not (isinstance(payload, dict) and payload):
        _json_parts(payload, "\n", out := [])
        write("".join(out) + "\n")
        return
    sep = "{\n  "
    for key, item in sorted(payload.items()):
        out = [sep + encode_basestring_ascii(key) + ": "]
        _json_parts(item, "\n  ", out)
        write("".join(out))
        sep = ",\n  "
    write("\n}\n")
