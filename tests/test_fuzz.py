"""Property tests over the command line's file inputs.

Whatever instance JSON or schedule text it is given, the CLI must answer with
exit code 0, 1 or 2 and never let an exception escape; every schedule it
writes must load back and validate.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from aoiflow.cli import main
from aoiflow.fileio import instance_to_dict, load_instance, load_solution
from aoiflow.model import validate_solution
from conftest import make_fastslow_instance

# "a b" and "a>b" are node names, "e,1" and "e 1" link ids, that a schedule
# file cannot carry, so an instance naming them is refused
NODES = ["s", "r", "a", "x", "a b", "a>b"]
RATIONALS = ["1", "2", "3", "1/2", "2/3", "0", "-1", "3/0", "x", "1/100000"]

# every JSON value a field might wrongly hold, right ones included
any_value = st.sampled_from(
    [-1, 0, 1, 2, 5, *RATIONALS, *NODES]
    + [None, True, 1.5, 1e300, float("inf"), float("nan"), [1], {}]
)
LINK_FIELDS = {
    "id": st.sampled_from(["e1", "e2", "e3", "e,1", "e 1", "", "s>r"]),
    "from": st.sampled_from(NODES),
    "to": st.sampled_from(NODES),
    "delay": any_value,
    "bandwidth": any_value,
}
INSTANCE_FIELDS = {
    "nodes": st.one_of(st.lists(st.sampled_from(NODES), max_size=4), any_value),
    "links": st.one_of(
        st.lists(
            st.one_of(
                st.fixed_dictionaries(LINK_FIELDS),
                st.fixed_dictionaries({}, optional=LINK_FIELDS),
            ),
            min_size=1,
            max_size=4,
        ),
        any_value,
    ),
    "sender": st.sampled_from(NODES),
    "receiver": st.sampled_from(NODES),
    "batch": any_value,
    "r_min": any_value,
    "r_max": any_value,
}
instances = st.one_of(
    st.fixed_dictionaries(INSTANCE_FIELDS),
    st.fixed_dictionaries({}, optional=INSTANCE_FIELDS),
)
json_documents = st.one_of(instances, st.lists(any_value, max_size=3), any_value)
# half the examples pair a fuzzed schedule with a sound instance
documents = st.builds(
    lambda sound, fuzzed: instance_to_dict(make_fastslow_instance()) if sound else fuzzed,
    st.booleans(),
    json_documents,
)

fields = st.one_of(
    st.sampled_from(RATIONALS),
    st.builds(
        "{}={}".format,
        st.sampled_from(["period", "batch", "path", "via", "offsets", "junk"]),
        st.sampled_from(["", "1", "2", "s>r", "s>a>r", "e1", "e1,e2", "0,1,2", "0,x"]),
    ),
    st.sampled_from(["junk", "=", "via", "offsets=0,0,1,2"]),
)
header = st.builds(
    "period={} batch={}".format,
    st.sampled_from(["7", "10", "0", "-1", "x"]),
    st.sampled_from(RATIONALS + ["10"]),
)
entry = st.builds(
    "{} path={} via={} offsets={}".format,
    st.sampled_from(RATIONALS + ["10", "7"]),
    st.sampled_from(["s>r", "r>s", "s>a>r", "s"]),
    st.sampled_from(["e1", "e2", "e1,e2", "zz", ""]),
    st.one_of(
        st.sampled_from(["0,0,1", "0,3,4", "0,0,11", "0,1,12", "0,0,1,2"]),
        st.lists(st.integers(-1, 12), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    ),
)
lines = st.one_of(
    entry,
    st.lists(fields, max_size=5).map(" ".join),
    st.text(max_size=20),
)
schedules = st.builds(
    lambda first, rest: "\n".join([first] + rest),
    st.one_of(header, lines),
    st.lists(lines, max_size=4),
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(document=documents, schedule=schedules)
def test_validate_never_raises(tmp_path_factory, document, schedule):
    workdir = tmp_path_factory.mktemp("validate")
    inst_path, sol_path = workdir / "fuzz.inst", workdir / "fuzz.sol"
    inst_path.write_text(json.dumps(document))
    sol_path.write_text(schedule)
    assert main(["--quiet", "validate", str(inst_path), str(sol_path)]) in (0, 1, 2)


small_links = st.lists(
    st.tuples(
        st.sampled_from(
            [("s", "r"), ("s", "a"), ("a", "r"), ("r", "s"), ("a", "s"), ("r", "a")]
        ),
        st.integers(1, 3),
        st.sampled_from(["1", "2", "1/2", "3", "0"]),
    ),
    min_size=1,
    max_size=4,
)


@settings(FUZZ, max_examples=80)
@given(
    link_specs=small_links,
    batch=st.integers(1, 4),
    t_min=st.integers(1, 3),
    t_extra=st.integers(0, 2),
    shift=st.integers(0, 2),
    relay=st.sampled_from(["a", "a_1", "a,1", "a b", "a>b", ""]),
    tag=st.sampled_from(["e", "a>b", "e,", "e "]),
)
def test_mmd_at_period_schedules_validate(
    tmp_path_factory, link_specs, batch, t_min, t_extra, shift, relay, tag
):
    t_max, period = t_min + t_extra, t_min + shift  # period may leave the window
    name = {"s": "s", "r": "r", "a": relay}
    document = {
        "nodes": ["s", "r", relay],
        "links": [
            {
                "id": f"{tag}{i}",
                "from": name[tail],
                "to": name[head],
                "delay": delay,
                "bandwidth": bw,
            }
            for i, ((tail, head), delay, bw) in enumerate(link_specs)
        ],
        "sender": "s",
        "receiver": "r",
        "batch": str(batch),
        "r_min": f"{batch}/{t_max}",
        "r_max": f"{batch}/{t_min}",
    }
    workdir = tmp_path_factory.mktemp("mmd")
    inst_path, sol_path = workdir / "fuzz.inst", workdir / "fuzz.sol"
    inst_path.write_text(json.dumps(document))
    argv = ["--quiet", "mmd-at-period", str(inst_path), str(period), "--sol", str(sol_path)]
    rc = main(argv)
    assert rc in (0, 1, 2)
    if relay in ("a b", "a>b", "") or tag in ("e,", "e "):
        assert rc == 1  # refused before solving: the schedule would not load
    if rc == 0:
        inst = load_instance(str(inst_path))
        sol, loaded_batch = load_solution(inst.network, str(sol_path))
        ok, _, violations = validate_solution(inst, sol)
        assert ok, violations
        assert sol.period == period and loaded_batch == inst.batch
