"""On-disk formats: network/instance JSON and the schedule text format.

Rationals are written as "p/q" (or a bare integer); parsing and serializing
round-trip losslessly.  Schedule files carry one entry per line,

    <amount> path=v1>v2>...>vk via=e1,...,e{k-1} offsets=u0,u1,...,uk

under a ``period=T batch=D`` header.  File offsets are the full vector
(u0 = 0, per-hop push offsets, final delivery slot equal to the last push
plus that hop's delay); they are converted to the in-memory arrival form on
load and back on save.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .model import (
    Instance,
    Link,
    ModelError,
    Network,
    PeriodicSolution,
    ScheduleEntry,
)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"bad rational {text!r}") from exc


def format_rational(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def network_to_dict(net: Network) -> dict:
    return {
        "nodes": list(net.nodes),
        "links": [
            {
                "id": link.id,
                "from": link.tail,
                "to": link.head,
                "delay": link.delay,
                "bandwidth": format_rational(link.bandwidth),
            }
            for link in net.links
        ],
    }


def network_from_dict(data: dict) -> Network:
    try:
        for field in ("nodes", "links"):
            # a JSON string or object would iterate as characters or keys
            if not isinstance(data[field], list):
                raise TypeError(f"{field} must be an array")
        links = tuple(
            Link(
                id=str(entry["id"]),
                tail=str(entry["from"]),
                head=str(entry["to"]),
                delay=_integer_delay(entry),
                bandwidth=parse_rational(str(entry["bandwidth"])),
            )
            for entry in data["links"]
        )
        return Network(nodes=tuple(str(v) for v in data["nodes"]), links=links)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed network data: {exc}") from exc


def _integer_delay(entry: dict) -> int:
    """The link's delay; a bool, or a number ``int()`` would truncate, is refused."""
    raw = entry["delay"]
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ModelError(f"non-integer-delay: {entry['id']} (delay={raw})")
    return int(raw)


def instance_to_dict(inst: Instance) -> dict:
    data = network_to_dict(inst.network)
    data.update(
        {
            "sender": inst.sender,
            "receiver": inst.receiver,
            "batch": format_rational(inst.batch),
            "r_min": format_rational(inst.r_min),
            "r_max": format_rational(inst.r_max),
        }
    )
    return data


def instance_from_dict(data: dict) -> Instance:
    try:
        return Instance(
            network=network_from_dict(data),
            sender=str(data["sender"]),
            receiver=str(data["receiver"]),
            batch=parse_rational(str(data["batch"])),
            r_min=parse_rational(str(data["r_min"])),
            r_max=parse_rational(str(data["r_max"])),
        )
    except KeyError as exc:
        raise ModelError(f"instance file missing field {exc}") from exc


def save_network(net: Network, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str):
    """The file's JSON value; ModelError when it nests too deeply to parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ModelError(f"{path}: JSON nested too deeply") from exc


def load_network(path: str) -> Network:
    return network_from_dict(_load_json(path))


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    return instance_from_dict(_load_json(path))


def solution_to_text(net: Network, sol: PeriodicSolution, batch: Fraction) -> str:
    lines = [f"period={sol.period} batch={format_rational(batch)}"]
    for entry in sol.entries:
        nodes = entry.path_nodes(net)
        pushes = entry.push_offsets(net)
        file_offsets = (0,) + pushes + (entry.delivery,)
        lines.append(
            f"{format_rational(entry.amount)}"
            f" path={'>'.join(nodes)}"
            f" via={','.join(entry.links)}"
            f" offsets={','.join(str(u) for u in file_offsets)}"
        )
    return "\n".join(lines) + "\n"


def save_solution(net: Network, sol: PeriodicSolution, batch: Fraction, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(solution_to_text(net, sol, batch))


def _named_fields(
    parts: list[str], line: str, required: tuple[str, ...]
) -> dict[str, str]:
    """``key=value`` parts as a dict; ModelError naming the line if one is bad."""
    pairs = [part.split("=", 1) for part in parts]
    if any(len(pair) != 2 for pair in pairs):
        raise ModelError(f"schedule field without '=': {line!r}")
    fields = dict(pairs)
    missing = [f"{key}=" for key in required if key not in fields]
    if missing:
        raise ModelError(f"schedule line missing {', '.join(missing)}: {line!r}")
    return fields


def solution_from_text(net: Network, text: str) -> tuple[PeriodicSolution, Fraction]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ModelError("empty schedule file")
    header = _named_fields(lines[0].split(), lines[0], ("period", "batch"))
    period = _parsed(int, header["period"], lines[0])
    batch = _parsed(parse_rational, header["batch"], lines[0])
    index = net.link_index
    entries = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise ModelError(f"malformed schedule line: {line!r}")
        amount = _parsed(parse_rational, fields[0], line)
        parts = _named_fields(fields[1:], line, ("path", "via", "offsets"))
        link_ids = tuple(parts["via"].split(","))
        file_offsets = [_parsed(int, u, line) for u in parts["offsets"].split(",")]
        if len(file_offsets) != len(link_ids) + 2:
            raise ModelError(f"offset vector has wrong length: {line!r}")
        if file_offsets[0] != 0:
            raise ModelError(f"offset vector must start at 0: {line!r}")
        arrivals = [0]
        for i, link_id in enumerate(link_ids):
            link = index.get(link_id)
            if link is None:
                raise ModelError(f"schedule references unknown link {link_id!r}")
            arrivals.append(file_offsets[i + 1] + link.delay)
        if arrivals[-1] != file_offsets[-1]:
            raise ModelError(
                f"delivery slot {file_offsets[-1]} does not match final arrival "
                f"{arrivals[-1]}: {line!r}"
            )
        entry = ScheduleEntry(link_ids, tuple(arrivals), amount)
        declared_path = tuple(parts["path"].split(">"))
        if entry.path_nodes(net) != declared_path:
            raise ModelError(f"declared path disagrees with links: {line!r}")
        entries.append(entry)
    return PeriodicSolution(period, tuple(entries)), batch


def load_solution(net: Network, path: str) -> tuple[PeriodicSolution, Fraction]:
    with open(path) as fh:
        return solution_from_text(net, fh.read())


def _parsed(parse, text: str, line: str):
    """``parse(text)``; ModelError naming the line if text does not parse."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ModelError(f"bad value {text!r}: {line!r}") from exc
