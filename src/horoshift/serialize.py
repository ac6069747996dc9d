"""JSON / CSV descriptors for groups, horofunctions, specs and reports.

All JSON is written as ``json.dumps(obj, sort_keys=True, indent=2)`` writes
it, with no timestamps, so identical runs produce byte-identical artifacts.
"""

import hashlib
import io
import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import InputError, field
from . import groups, horoballs, subshifts
from .certify import Direction


def json_dumps(obj):
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, from one list of
    pieces; types json refuses, and non-str dict keys, raise TypeError."""
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(o):
    """JSON text of a str, None, bool, int or float (or subclass), else None."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, bool):
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return (float.__repr__(o) if math.isfinite(o) else "NaN" if o != o
                else "Infinity" if o > 0 else "-Infinity")
    return None


def _write(o, nl, out):
    """Append the JSON text of ``o`` to ``out``; ``nl`` is its line's indent."""
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        # rows of plain ints, all of one width: one % template writes them
        if (o and {*map(type, o)} == {list} and len(width := {*map(len, o)})
                == 1 and {*map(type, cells := [*chain.from_iterable(o)])}
                == {int}):
            cell = inner + "  "
            row = f"[{cell}{(',' + cell).join(['%d'] * width.pop())}{inner}]"
            out += ("[", inner, ("," + inner).join([row] * len(o)) % (*cells,),
                    nl, "]")
            return
        texts = [_scalar(v) for v in o]
        if o and None not in texts:
            out += ("[", inner, ("," + inner).join(texts), nl, "]")
            return
        for i, v in enumerate(o):
            out.append("," + inner if i else "[" + inner)
            _write(v, inner, out)
        out += (nl, "]") if o else ("[]",)
    elif isinstance(o, dict):
        for i, (key, v) in enumerate(sorted(o.items())):
            # encode_basestring_ascii raises TypeError on a non-str key
            out += ("," + inner if i else "{" + inner,
                    encode_basestring_ascii(key), ": ")
            _write(v, inner, out)
        out += (nl, "}") if o else ("{}",)
    elif (text := _scalar(o)) is not None:
        out.append(text)
    else:
        raise TypeError(f"Object of type {type(o).__name__} "
                        f"is not JSON serializable")


def load_json(text):
    """Parse a JSON descriptor given on the command line or read from a file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON descriptor {text!r}: {e}") from e


def _num(x):
    if isinstance(x, Fraction):
        return float(x) if x.denominator != 1 else int(x)
    return x


# ---------------------------------------------------------------------------
# groups

def parse_group(descriptor):
    """Shorthands: "z2-l1", "z3-l2", "zd-linf" style; "wfa-index";
    "dsz2-index"; or a JSON object string."""
    if descriptor.startswith("{"):
        return group_from_dict(load_json(descriptor))
    d = descriptor.strip().lower()
    if d.startswith("z") and "-l" in d:
        dim_s, p_s = d[1:].split("-l")
        p = {"1": 1, "2": 2, "inf": "inf"}.get(p_s)
        if p is None or not dim_s.isdigit():
            raise InputError(f"bad group descriptor {descriptor!r}")
        return groups.ZdLp(int(dim_s), p)
    if d == "wfa-index":
        return groups.WeightedFreeAbelian()
    if d == "dsz2-index":
        return groups.DirectSumZ2()
    raise InputError(f"unknown group descriptor {descriptor!r}")


def group_to_dict(g):
    if isinstance(g, groups.ZdLp):
        return {"kind": "zd-lp", "dim": g.dim, "p": g.p}
    if isinstance(g, groups.WeightedFreeAbelian):
        return {"kind": "weighted-free-abelian", "weight": "index"}
    if isinstance(g, groups.DirectSumZ2):
        return {"kind": "direct-sum-z2", "weight": "index"}
    raise InputError(f"unserializable group {g!r}")


def group_from_dict(d):
    kind = d.get("kind")
    if kind == "zd-lp":
        return groups.ZdLp(field(d, "dim", int), field(d, "p"))
    if kind not in ("weighted-free-abelian", "direct-sum-z2"):
        raise InputError(f"unknown group kind {kind!r}")
    if (weight := d.get("weight", "index")) != "index":
        raise InputError(f"the weight must be 'index' (w(i) = i), got {weight!r}")
    if kind == "direct-sum-z2":
        return groups.DirectSumZ2()
    return groups.WeightedFreeAbelian()


# ---------------------------------------------------------------------------
# horofunctions / horoballs

def parse_horoball(descriptor):
    return horoball_from_dict(load_json(descriptor))


def _numbers(d, key, kind=(int, float), length=None):
    """``d[key]`` as a tuple of numbers of the given kind (and length); a
    JSON boolean is no number, although bool is an int in Python."""
    v = field(d, key, list)
    if (all(isinstance(c, kind) and type(c) is not bool for c in v)
            and len(v) == (length or len(v))):
        return tuple(v)
    raise InputError(f"bad {key!r} vector {v!r}")


def horoball_from_dict(d):
    kind = field(d, "kind")
    if kind == "linear":
        return horoballs.l2_horoball(_numbers(d, "v"))
    if kind in ("halfplane-diagonal", "halfplane-antidiagonal"):
        return horoballs.Horoball(
            horoballs.PolyhedralZ2(kind, side=field(d, "side")))
    if kind == "quarter-space":
        return horoballs.Horoball(
            horoballs.PolyhedralZ2(kind, apex=_numbers(d, "apex", int, 2),
                                   opening=field(d, "opening")))
    if kind == "sampled-l1-ray":
        return horoballs.sampled_l1_horoball_z2(_numbers(d, "ray", int, 2),
                                                d.get("n_star", 512))
    raise InputError(f"unknown horoball kind {kind!r}")


def horoball_to_dict(h):
    j = h.j
    if isinstance(j, horoballs.Linear):
        return {"kind": "linear",
                "v": list(j.int_dir) if j.int_dir else list(j.v)}
    if isinstance(j, horoballs.PolyhedralZ2):
        if j.shape == "quarter-space":
            return {"kind": j.shape, "apex": list(j.apex), "opening": j.opening}
        return {"kind": j.shape, "side": j.side}
    if isinstance(j, horoballs.Sampled) and j.ray is not None:
        return {"kind": "sampled-l1-ray", "ray": list(j.ray),
                "n_star": j.n_star}
    raise InputError(f"unserializable horoball {h!r}")


# ---------------------------------------------------------------------------
# subshift specs

def parse_spec(descriptor):
    d = descriptor.strip().lower()
    if d == "ledrappier":
        return subshifts.ledrappier()
    if d in ("fullshift", "full-shift"):
        return subshifts.FullShift((0, 1))
    if descriptor.strip().startswith("{"):
        return subshifts.spec_from_dict(load_json(descriptor))
    raise InputError(f"unknown system descriptor {descriptor!r}")


def spec_hash(spec):
    return hashlib.sha256(json_dumps(spec.to_dict()).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# directions and certificates

def direction_to_dict(d):
    return {"a": d.a, "b": d.b, "label": d.label}


def direction_from_dict(d):
    return Direction(field(d, "a", int), field(d, "b", int),
                     d.get("label", "rational"))


def direction_to_vector_descriptor(d):
    """Vector form consumed by the convexity operations."""
    if d.label == "sqrt-normalized":
        return ["sqrt-normalized", d.a, d.b]
    return [d.a, d.b]


def nd_report_to_dict(report):
    return {
        "epsilon": {"dyadic": f"2^-{report.k}", "value": report.epsilon},
        "k": report.k,
        "N": report.N,
        "metadata": dict(report.metadata, spec_hash=spec_hash(report.spec)),
        "entries": [
            {"direction": direction_to_dict(d),
             "certificate": c.to_dict()}
            for d, c in report.entries
        ],
        "witness_directions": [direction_to_dict(d)
                               for d in report.witness_directions()],
    }


def nd_report_to_csv(report):
    """CSV rows of a report dict as built by ``nd_report_to_dict``."""
    buf = io.StringIO()
    buf.write("a,b,label,certificate,extendable\n")
    for e in report["entries"]:
        d, c = e["direction"], e["certificate"]
        buf.write(f"{d['a']},{d['b']},{d['label']},{c['kind']},"
                  f"{c.get('extendable', '')}\n")
    return buf.getvalue()


def witness_vectors_from_report_dict(d):
    """Vector descriptors of the Witness directions of a serialized NDReport."""
    out = []
    for entry in field(d, "entries", list):
        if field(field(entry, "certificate"), "kind") == "witness":
            v = direction_from_dict(field(entry, "direction"))
            out.append(direction_to_vector_descriptor(v))
    if not out:
        raise InputError("report contains no witness directions")
    return out


def hull_certificate_to_dict(cert):
    d = {"variant": cert.variant}
    if cert.variant == "in-hull":
        d["coefficients"] = [_num(c) for c in cert.coefficients]
        d["residual"] = cert.residual
    else:
        d["separator"] = [_num(c) for c in cert.separator]
    return d


def coverage_report_to_dict(rep):
    return {"covered": rep.covered,
            "max_gap_degrees": rep.max_gap_degrees,
            "probes": len(rep.probe_results),
            "failing_probes": [list(p) for p in rep.failing_probes()]}
