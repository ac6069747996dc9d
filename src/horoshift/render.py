"""Deterministic raster (PGM P5) and vector (SVG 1.1) output.

No timestamps, fixed number formatting, stable iteration order: the same
input always produces byte-identical files.
"""

import math

from .errors import InputError, field
from .groups import ZdLp
from .serialize import direction_from_dict


def write_pgm(path, rows):
    """Write a grayscale image as binary PGM (P5).

    ``rows`` is a sequence of equal-length sequences of ints in 0..255,
    top row first; anything else, a bool or a float too, is refused.
    """
    h = len(rows)
    if h == 0:
        raise InputError("empty image")
    w = len(rows[0])
    data = bytearray(f"P5\n{w} {h}\n255\n".encode("ascii"))
    for r in rows:
        if len(r) != w:
            raise InputError("ragged image rows")
        for v in r:
            if type(v) is not int or not 0 <= v <= 255:
                raise InputError(f"pixel {v!r} is not an int in 0..255")
        data.extend(r)
    with open(path, "wb") as f:
        f.write(bytes(data))
    return len(data)


def ball_raster(group, center, N):
    """Raster of the ball {x : d(center, x) < d(center, 0)} on [-N, N]^2,
    black inside and white outside: row 0 is y = N, column 0 is x = -N.

    Only Z^2 with an l^p norm is drawn; any other group is refused.
    """
    if not (isinstance(group, ZdLp) and group.dim == 2):
        raise InputError("render horoball draws [-N, N]^2 and needs a Z^2 "
                         "group")
    # row y is |x - cx| <= reach(|y - cy|), the largest dx with (dx, dy) of
    # exact norm <= r, or -1 for none
    center = group.check(center)
    (cx, cy), r = center, group.norm_exact(center) - 1
    reach = {1: lambda dy: r - dy, "inf": lambda dy: r if dy <= r else -1,
             2: lambda dy: math.isqrt(r - dy * dy) if dy * dy <= r else -1}
    ws = (reach[group.p](abs(y - cy)) for y in range(N, -N - 1, -1))
    return [[0 if abs(x - cx) <= w else 255 for x in range(-N, N + 1)]
            for w in ws]


def _fmt(x):
    return f"{x:.4f}".rstrip("0").rstrip(".")


def direction_circle_svg(report):
    """Unit-circle plot of a report dict as built by
    ``serialize.nd_report_to_dict``: one dot per grid direction, filled for
    Witness, open for WindowDeterministic, crossed for Inconclusive."""
    size, R = 400, 160
    cx = cy = size // 2
    k = field(report, "k")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{R}" fill="none" stroke="#888"/>',
    ]
    for e in field(report, "entries", list):
        d = direction_from_dict(field(e, "direction"))
        kind = field(field(e, "certificate"), "kind")
        ux, uy = d.unit()
        x, y = cx + R * ux, cy - R * uy
        if kind == "witness":
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="6" '
                         f'fill="#c00"><title>{d!r}: witness</title></circle>')
        elif kind == "window-deterministic":
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
                         f'fill="none" stroke="#06c">'
                         f'<title>{d!r}: deterministic</title></circle>')
        else:
            parts.append(f'<g stroke="#999"><line x1="{_fmt(x - 4)}" '
                         f'y1="{_fmt(y - 4)}" x2="{_fmt(x + 4)}" y2="{_fmt(y + 4)}"/>'
                         f'<line x1="{_fmt(x - 4)}" y1="{_fmt(y + 4)}" '
                         f'x2="{_fmt(x + 4)}" y2="{_fmt(y - 4)}"/></g>')
    parts.append(f'<text x="8" y="{size - 10}" font-size="12" fill="#444">'
                 f'k={k} N={field(report, "N")} eps=2^-{k}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

