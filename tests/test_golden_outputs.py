"""Byte-for-byte guard on the CLI's outputs.

Pins sha256 digests of the ``reproduce all`` stdout; of the ``run`` stdout,
``--trace`` CSV and ``--summary`` file for every shipped scenario under both
schedules and both policies; and of the ``tune-pricing`` and ``remove-loop``
stdout on every shipped scenario. Each stdout digest covers the exit code
too, and stderr whenever a command writes to it; those two commands refuse
a scenario with events, so on such a scenario the entry pins exit 1, an
empty stdout and the ``error:`` line that names the refused section. The
four entries for ``new_user.scn`` and ``station_walk.scn`` were re-pinned
when stderr joined the digest; no other digest changed. A 100-user,
one-station network written by this module, modelled on
the perfbench ``cell`` workload, pins the same ``run`` outputs at large N:
both schedules and both policies, plus one run on a discrete rate ladder,
and every schedule and policy on that ladder with ``quantize =
at_convergence``. ``sweep-lambda`` stdout is pinned on every shipped
scenario under both schedules (the scenario is rewritten with its
``[run] schedule`` set, since the command takes no schedule flag), and
``tune-pricing`` stdout on a two-station network written by this module
that tests eight coefficients, under both schedules, in full and with a
budget of three steps. ``tune-pricing --dc 1e-5`` stdout is pinned on
``crowded_cell.scn`` and on the synchronous two-station network; both
escalate over several windows. ``remove-loop`` stdout is pinned under both
schedules on a 40-user one-station and a 12-user two-station overloaded
cell written by this module, which remove 38 and 8 users one at a time.
A change that is meant to leave outputs alone must keep every digest; one
that changes an output on purpose says so and re-pins that entry.
``PYTHONPATH=src python tests/test_golden_outputs.py`` prints the current
table.
"""

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from ratepower.cli import main
from ratepower.scenario import parse_scenario, scenario_to_text

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))


def _call(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr\n{err.getvalue()}"
    return text.encode()


def _outputs(tmp: Path) -> dict[str, bytes]:
    outputs = {"reproduce all": _call(["reproduce", "all"])}
    for path in SCENARIOS:
        for schedule in ("sync", "seq"):
            for policy in ("clamp", "kkt"):
                key = f"run {path.name} {schedule} {policy}"
                trace, summary = tmp / "trace.csv", tmp / "summary.txt"
                argv = ["run", str(path), "--schedule", schedule, "--policy", policy]
                outputs[key + " stdout"] = _call(
                    argv + ["--trace", str(trace), "--summary", str(summary)]
                )
                outputs[key + " trace"] = trace.read_bytes()
                outputs[key + " summary"] = summary.read_bytes()
                trace.unlink()
                summary.unlink()
        outputs[f"tune-pricing {path.name}"] = _call(["tune-pricing", str(path)])
        outputs[f"remove-loop {path.name}"] = _call(["remove-loop", str(path)])
    return outputs


SWEEP_ARGS = ("--from", "1e-5", "--to", "1e-3", "--steps", "4")
SCHEDULES = ("synchronous", "sequential")


def _with_schedule(path: Path, schedule: str, tmp: Path) -> Path:
    scenario = parse_scenario(path.read_text())
    config = replace(scenario.config, schedule=schedule)
    out = tmp / f"{path.stem}_{schedule}.scn"
    out.write_text(scenario_to_text(replace(scenario, config=config)))
    return out


# Two stations, six users: two near each station, one power-limited user at
# the midpoint and one near station 2 with a high target. Per-user-count
# pricing from c = 1e-4 in steps of 1e-4 first lifts everyone to target at
# the eighth coefficient.
TUNE_USERS = (
    ("a", (80.0, 420.0), 20.0, 3.0),
    ("b", (150.0, 360.0), 25.0, 3.0),
    ("c", (240.0, 260.0), 20.0, 0.02),
    ("d", (380.0, 120.0), 16.0, 3.0),
    ("e", (300.0, 190.0), 30.0, 0.05),
    ("f", (420.0, 90.0), 20.0, 3.0),
)


def tune_text(schedule: str) -> str:
    parts = ["[network]\nbandwidth_hz = 1e6\nnoise_w = 5e-15\n"]
    for name, (d1, d2), alpha2, p_max in TUNE_USERS:
        parts.append(
            f"[user {name}]\ndistances_m = {d1!r} {d2!r}\nalpha2 = {alpha2!r}\n"
            f"p_max = {p_max!r}\n"
        )
    parts.append("[pricing]\nrule = per_user_count\nc = 1e-4\ndc = 1e-4\n")
    parts.append(f"[run]\nschedule = {schedule}\n")
    return "\n".join(parts)


def _batch_outputs(tmp: Path) -> dict[str, bytes]:
    outputs = {}
    for path in SCENARIOS:
        for schedule in SCHEDULES:
            copy = _with_schedule(path, schedule, tmp)
            key = f"sweep-lambda {path.name} {schedule}"
            outputs[key] = _call(["sweep-lambda", str(copy), *SWEEP_ARGS])
    for schedule in SCHEDULES:
        path = tmp / f"tune_{schedule}.scn"
        path.write_text(tune_text(schedule))
        outputs[f"tune-pricing two-station {schedule}"] = _call(["tune-pricing", str(path)])
        key = f"tune-pricing two-station {schedule} max-steps 3"
        outputs[key] = _call(["tune-pricing", str(path), "--max-steps", "3"])
        if schedule == "synchronous":
            key = f"tune-pricing two-station {schedule} dc 1e-5"
            outputs[key] = _call(["tune-pricing", str(path), "--dc", "1e-5"])
    crowded = next(path for path in SCENARIOS if path.name == "crowded_cell.scn")
    outputs["tune-pricing crowded_cell.scn dc 1e-5"] = _call(["tune-pricing", str(crowded), "--dc", "1e-5"])
    return outputs


def _digests(tmp: Path) -> dict[str, str]:
    outputs = {**_outputs(tmp), **_batch_outputs(tmp)}
    return {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}


GOLDEN = {
    "reproduce all": "38d31ceedf8e13a76d9ccdda57a6f3f95a33d2fe220f040169b0a80e363ba2a9",
    "run crowded_cell.scn sync clamp stdout": "7214ed72e98097df0e83149097a55354d400c8d6b21a104939574d5137dccd4e",
    "run crowded_cell.scn sync clamp trace": "04743d4d04f778aa2963e0c3ce8118e04cb6e06d4b7af23a9f9ece46644102c6",
    "run crowded_cell.scn sync clamp summary": "c80bee5fdeb7762ccb50c4015f265c12cf97d9bd832ca74f3745cda4b061012c",
    "run crowded_cell.scn sync kkt stdout": "47d34119efde3d7c47a59f15db660ebcb5db20cb5c4a6a4fba231625391a1cbb",
    "run crowded_cell.scn sync kkt trace": "aa46ec865e89f6d928c7b0279b0e12ee620eb041ad4c7840b1e8e76cafc01fd5",
    "run crowded_cell.scn sync kkt summary": "841274381a382ddca7895938b75ea15f40a11734000f66625b3364af809e3990",
    "run crowded_cell.scn seq clamp stdout": "4dbfb8c5b98fa01e83778a330726c0da1861a8c830d23f0024da0d819c338f2b",
    "run crowded_cell.scn seq clamp trace": "dfb5e836c4c4cd215b64020d9f694105c7c8add01fecb63bf7cb60c25c74e030",
    "run crowded_cell.scn seq clamp summary": "947ceae471f4dad62497dce8ec92171bad48d6c6a8414a8df7d360b2250aa896",
    "run crowded_cell.scn seq kkt stdout": "0c3c914432bb6b5ee5abd26277ab88726059136e7217d00eca90394233879e45",
    "run crowded_cell.scn seq kkt trace": "a9fa80102bdd63a587601b04a4bbe550a9397a017aa0d65eeb224e2906c2b357",
    "run crowded_cell.scn seq kkt summary": "3d461dd8e8c8ee8131681b297eb91e8ed5cbc161151e65e003ec1ea2d840b203",
    "tune-pricing crowded_cell.scn": "4bf929970e4744d064508aab0a3f0068d4740ebacb6daa57ff07826a8f124e3c",
    "remove-loop crowded_cell.scn": "5c15688247e407248fd266e2cac1c7cdb3770e78a53d90ae25f6bf314d401c74",
    "run new_user.scn sync clamp stdout": "483a3610a1b5573e738dd42586ddbf9b8d2f9eb211f99b4c13e4f76e76fae88f",
    "run new_user.scn sync clamp trace": "4c5a419db522084c44733918fe5bd6e875f784db7b3714a076b614d301fde717",
    "run new_user.scn sync clamp summary": "505491e5aa6f0dba78fa70e629f62216950c8168d17c6f985f43fd9a3d2f20b4",
    "run new_user.scn sync kkt stdout": "483a3610a1b5573e738dd42586ddbf9b8d2f9eb211f99b4c13e4f76e76fae88f",
    "run new_user.scn sync kkt trace": "37b3455e8ae65fa732d2f31cb44d14a248996318317339893569d4dd626aa1c5",
    "run new_user.scn sync kkt summary": "505491e5aa6f0dba78fa70e629f62216950c8168d17c6f985f43fd9a3d2f20b4",
    "run new_user.scn seq clamp stdout": "abe0bd2a76f38f461ab3dfcb5ff58fef56fb6d6c5883e0d64e56f14d3b2096c4",
    "run new_user.scn seq clamp trace": "fdc530d4983c97840916c45b02291ab9dfbf0c036eb73a0bb91026f4352f4263",
    "run new_user.scn seq clamp summary": "3b4efd88f8d39ef2d911ddaf93f9dc1b4616f2ce5817dcf959776e68bc1bf514",
    "run new_user.scn seq kkt stdout": "abe0bd2a76f38f461ab3dfcb5ff58fef56fb6d6c5883e0d64e56f14d3b2096c4",
    "run new_user.scn seq kkt trace": "b1044fb4b9ba7a0b0f69b6f4492fa3a03912a0e69a7bc9f6174b59b69d051778",
    "run new_user.scn seq kkt summary": "3b4efd88f8d39ef2d911ddaf93f9dc1b4616f2ce5817dcf959776e68bc1bf514",
    "tune-pricing new_user.scn": "ff406132d5a3f66e86a0d837f95ce2b40d18383dc43ae4075836ad682857be48",
    "remove-loop new_user.scn": "2ff57e2eecb908f85986326ce44a120e4afb9d884b5543e2dc69397afc1a9bc5",
    "run station_walk.scn sync clamp stdout": "f7622aa62d9345595ba481bc8e4b5417d549540cf345197cc4517eb9ab45eb38",
    "run station_walk.scn sync clamp trace": "ac172ee10138e3e7b41dd955a69205f2381ba3363aeaf0e60ba06f205b0fd852",
    "run station_walk.scn sync clamp summary": "a3b1104cfee06eaf31913b439a2929a81bcdafa04df187a717ed9896991b4784",
    "run station_walk.scn sync kkt stdout": "4463cc417f0103f631d3a0fa2225fd942fc642e46798a7a28dc07a7088991916",
    "run station_walk.scn sync kkt trace": "a78a3a558779c57d9cfa1895059b505a74b26485c321f8b971a5444bac3dae53",
    "run station_walk.scn sync kkt summary": "d7553e3c39e480e461acbb39c96b874581456625f28668762247a64b624d0f22",
    "run station_walk.scn seq clamp stdout": "197e0fd0160cdaa9c5192fc7933c218cbf9ad85bd5e023eecaacd5e4f6b70171",
    "run station_walk.scn seq clamp trace": "15bc3534a7c231b87ce933e617e96d9969a0256e0475c4c7b024a1781c031e01",
    "run station_walk.scn seq clamp summary": "6acc511a5a7bdbb5cdf7c4f7eada05b37244bbb79bdab8ab860244704d60418b",
    "run station_walk.scn seq kkt stdout": "8426870b81237956d48bcfc227cb4e798512ef8c9011818d7fdd7318ce8f858f",
    "run station_walk.scn seq kkt trace": "07e64b1ad0702fda00bf6c6b094789ee4a7340f649bc3efa4a6b5e24b1b21e4d",
    "run station_walk.scn seq kkt summary": "8fb6bb4c868dfae88c05bec8c87db8e3997995c424deb004e4245be82c6c8897",
    "tune-pricing station_walk.scn": "fdb9fd5cfc7e0a82803dab296ff7e1a30844c22a952023442a6cf70a781be506",
    "remove-loop station_walk.scn": "d69920caa261140dd051739248aad3e71d7254ed9af89ece1d4da5c8c17e5cc3",
    "run three_users.scn sync clamp stdout": "179a600e092cbc9bd3302031fcd03076fbd2681b9937e9a3663d119c47e3ff77",
    "run three_users.scn sync clamp trace": "eb36b37609a02bbab4769c5bc6d71bf5d3d2774f9345d65e00c6982261ece2b4",
    "run three_users.scn sync clamp summary": "223503f5cef27c382694b8602398856e8d348bf6d6a3ca04cf284df214eba03e",
    "run three_users.scn sync kkt stdout": "2004c4a86c0dc8d820e973aae68e1686d778c619037f6078b937b8e0e3389b9c",
    "run three_users.scn sync kkt trace": "88e015f9591e5c94ba5a418ccf0eca10009033a080ed02f2022233466b8cff98",
    "run three_users.scn sync kkt summary": "b94bbcb99b01bba58a650b37a9dbcf36bc6778ca597b27d20c690cbf449ba758",
    "run three_users.scn seq clamp stdout": "bbee8839b143cc5b79908b2ba33c810da06116493ae86182d477ae421bf64410",
    "run three_users.scn seq clamp trace": "f8b3caf96255348080e618cab7c5dda7bd4e4de4a751fff3f95c6a3ce0ff8856",
    "run three_users.scn seq clamp summary": "9d0446673daf0b20744dbde0daeb0aadf6b60b8e6ae844a05f7de8d9956c7335",
    "run three_users.scn seq kkt stdout": "aed5b2fac82cf922f460e683f6e5dbc6c9f5a0d386a97af73bc15edb2b2be189",
    "run three_users.scn seq kkt trace": "1810a06bb0b893e01eb68b48a434108808721a960701217c99e1e0dbc3009436",
    "run three_users.scn seq kkt summary": "c02d561882fb7cdf43a90ecaca2808adaaeca29bbcdf7632a0907dddd414ad39",
    "tune-pricing three_users.scn": "2b579b6b6e9ff38b1e35f26ae6c50ae75003c617591cb920e52d544701dbac4d",
    "remove-loop three_users.scn": "a0be7b14140767e5825d5ec200c33c604d123ed01edd90a7d3afa0ced9cba827",
    "sweep-lambda crowded_cell.scn synchronous": "5fbf0eb0b772b55db414edae3e23eff1158887e69878492914fed7be49b7b06d",
    "sweep-lambda crowded_cell.scn sequential": "843c0a7f755b592d142a8c512339286cf8ba0baf1c92054b2caa2c152106101e",
    "sweep-lambda new_user.scn synchronous": "ddcc18b46eaf913ba6405a5a7a12d9f49d0c21a91dc2d41685ea35201d4fa3b1",
    "sweep-lambda new_user.scn sequential": "dc60f7f8e139f2894d6bd3bbcf1f94a60f0009bb58421ec3c67e326b55d90a2b",
    "sweep-lambda station_walk.scn synchronous": "602ff99cdbe9445fd4e221a32685deb2c01b33d14d33cf006623f57561fc54a7",
    "sweep-lambda station_walk.scn sequential": "178209ccf7aafb09cbbd3d8d6192352f25d8055616c670a2005045becfe0bea5",
    "sweep-lambda three_users.scn synchronous": "4f319cbdcb321cbaa19f263ef1ec3e3c984fcef1f2f2c3f3708cdbdab0f6c039",
    "sweep-lambda three_users.scn sequential": "d2a99aced65d848d0fb504139a6d1e2e283d7b7a69f89e858b708eff2f2a725f",
    "tune-pricing two-station synchronous": "754c5d2d0cff16c5c774f79462c2af05ad3ee5091518ec612ec381e029f5c0f8",
    "tune-pricing two-station synchronous max-steps 3": "56c8f15538ed11fa4dbe552d8f539db1be8e72df2f9633ec65414de3b63a30c2",
    "tune-pricing two-station sequential": "c20757b2f9cceb635a370fef99612271eefc3cf057bb40511ec33e49276b3b97",
    "tune-pricing two-station sequential max-steps 3": "523cfa4695ab842b1ae28dc7d0b6fc860f851479af92ab6433de936ae2fa2f92",
    "tune-pricing two-station synchronous dc 1e-5": "688d06d8c15b9206d8f8387c9d2566676f967d121bf84bdcdc9105bf39e0860b",
    "tune-pricing crowded_cell.scn dc 1e-5": "09d3b686e02b165edbcece46ec0186420357e1f09e3626d1f4f819d932f838ba",
}


# A deterministic 100-user cell: one distance per 1.6 m band with a fixed
# jitter, four targets in equal shares, users listed in a scrambled order,
# per-user-count pricing, and a rate ladder whose lowest rung is r_min.
LARGE_N = 100
LARGE_N_ALPHA2 = (12.9492, 16.0, 20.0, 25.0)
LARGE_N_LADDER = (0.1, 64.0, 91.0, 128.0, 182.0, 258.0, 365.0, 517.0, 733.0, 1038.0, 1470.0)
LARGE_N_LADDER += (2083.0, 2950.0, 4179.0, 5920.0, 8386.0, 11880.0, 16829.0, 23840.0)
LARGE_N_LADDER += (33771.0, 47839.0, 67769.0, 96000.0)
# (policy, schedule, rate ladder: None, "per_iteration" or "at_convergence")
LARGE_N_RUNS = (
    ("clamp", "sync", None),
    ("kkt", "sync", None),
    ("clamp", "seq", None),
    ("kkt", "seq", None),
    ("clamp", "seq", "per_iteration"),
    ("clamp", "sync", "at_convergence"),
    ("kkt", "sync", "at_convergence"),
    ("clamp", "seq", "at_convergence"),
    ("kkt", "seq", "at_convergence"),
)


def large_n_text(ladder: str | None) -> str:
    parts = [
        "[network]\nbandwidth_hz = 1e6\nnoise_w = 5e-15\n"
        "pathloss_exponent = 4.0\nshadowing = 0.097\n"
    ]
    for j in range(LARGE_N):
        k = (37 * j) % LARGE_N
        distance = 60.0 + 160.0 * (k + ((61 * k) % 97) / 97) / LARGE_N
        parts.append(
            f"[user u{k:04d}]\ndistances_m = {distance!r}\nalpha1 = 1e6\n"
            f"alpha2 = {LARGE_N_ALPHA2[(3 * k + k // 5) % 4]!r}\np_min = 1e-6\n"
            "p_max = 3.0\nr_min = 0.1\nr_max = 96000.0\n"
        )
    parts.append("[pricing]\nrule = per_user_count\nc = 1e-5\n")
    if ladder is not None:
        run = "[run]\nrates = " + " ".join(map(repr, LARGE_N_LADDER)) + "\n"
        if ladder == "at_convergence":
            run += "quantize = at_convergence\n"
        parts.append(run)
    return "\n".join(parts)


def _large_n_outputs(tmp: Path) -> dict[str, bytes]:
    outputs = {}
    for policy, schedule, ladder in LARGE_N_RUNS:
        path = tmp / ("cell.scn" if ladder is None else f"cell_{ladder}.scn")
        path.write_text(large_n_text(ladder))
        key = f"run large-N {schedule} {policy}"
        if ladder is not None:
            key += " ladder" + (" at_convergence" if ladder == "at_convergence" else "")
        trace, summary = tmp / "trace.csv", tmp / "summary.txt"
        argv = ["run", str(path), "--schedule", schedule, "--policy", policy]
        outputs[key + " stdout"] = _call(argv + ["--trace", str(trace), "--summary", str(summary)])
        outputs[key + " trace"] = trace.read_bytes()
        outputs[key + " summary"] = summary.read_bytes()
    return outputs


def _large_n_digests(tmp: Path) -> dict[str, str]:
    return {key: hashlib.sha256(data).hexdigest() for key, data in _large_n_outputs(tmp).items()}


LARGE_N_GOLDEN = {
    "run large-N sync clamp stdout": "82041a321e4c2ec9c9560d7af8d70ab927dedb46592040f6c7588f6e42907c99",
    "run large-N sync clamp trace": "171677025bc4c789c2d993e40ba53a24263f9b7692209fc699fcfeba09343bf5",
    "run large-N sync clamp summary": "251e1433fe78c86c32d83cb7caa9c4c864ed2afe7e8204638b588dfe4303ba61",
    "run large-N sync kkt stdout": "2228e6730c2b532fa64628e82ebfc6f8161f632f7d15c802acc0d018bfd38aed",
    "run large-N sync kkt trace": "de7b41226cf1a0d4581f24662887fbdc60bd1259bcf854f0602964bf9b2b6275",
    "run large-N sync kkt summary": "0911fccd50c9471138fca3b696ded54d8e35c22dde76bfe0d11c3e63efca7104",
    "run large-N seq clamp stdout": "eefacb83cc171c74c5bc3f59a81936c5d5cd884670a5f3e2054e0229037f24ed",
    "run large-N seq clamp trace": "50cdacf70dab594b2e36947918640e5b69211f26af45691dc92bb012fb4b7a22",
    "run large-N seq clamp summary": "652dda3c47ecb2f07018dd5c4d83a01d2656f599912a33d5a9d7be25bd74f381",
    "run large-N seq kkt stdout": "e3e2df1e434b971d61f85455ae0c8ad6ac5c43dbfddaa4c4664d1396248d9a28",
    "run large-N seq kkt trace": "6f7c295236e54ca6e004998fdd99d0e944c9f8ff7c02f2f763557a74e2dc4e93",
    "run large-N seq kkt summary": "1221e90e6e2c74dbd4af69de122553cb5e9416459c4c4989105c2befeb6506cf",
    "run large-N seq clamp ladder stdout": "8b004465021c6973cfad53b7b80c8f9501819d1c042d5cc304571c0cf402a6f9",
    "run large-N seq clamp ladder trace": "3894f7fe0a72e69db22d414193967392c8f6840097fb63895f0e20d924457f91",
    "run large-N seq clamp ladder summary": "ffee9f6b3f897f9469917763080d53b8f71215550ae57b4ed350205d8ebfe46e",
    "run large-N sync clamp ladder at_convergence stdout": "1352ceba80833dc2efc44601d63ee8bb71dda6b236d9f52dbf8413b4aef757db",
    "run large-N sync clamp ladder at_convergence trace": "92f9ac6d716a723a5025cb7cdf23321f3afe8cab2c386c0d2079ea0a8ba174b7",
    "run large-N sync clamp ladder at_convergence summary": "95860092fbca63c46bbe9de40b94d9534d342b369c3218d91aa476c0bc6dbaaa",
    "run large-N sync kkt ladder at_convergence stdout": "a3f320e8f90f9d19f2809e46e7bc010716c27a9cedf5c95f45ed8763f3dc1b85",
    "run large-N sync kkt ladder at_convergence trace": "90a43c30231f4c563787c6e831ea0da766cb0ad9753d60028103a783cda5fef6",
    "run large-N sync kkt ladder at_convergence summary": "7afd768697016b0b62c65f16bed57e8732ab3811c4d125e378c4833e31d6a1bc",
    "run large-N seq clamp ladder at_convergence stdout": "2b323fcbb0263d2a026953ddd8643b06b79a3a6facdcef2abe89748921a50658",
    "run large-N seq clamp ladder at_convergence trace": "7a1095bfe4104989e980af732bd2cd7f0c4ed80790c897af2cbbfa717d5a4543",
    "run large-N seq clamp ladder at_convergence summary": "6b82a26785fc54a201d9a7e8e99e711bc6bf7d7233c136966aa9fe316ef3335a",
    "run large-N seq kkt ladder at_convergence stdout": "f3a1e1c6ef6c3e69c9a1ac3af66b1706a28784db35cca3fdfef8d4763b5be50f",
    "run large-N seq kkt ladder at_convergence trace": "73e5d0b2e7a02a157ef4155a8f8f87c149b6fcf927d76cdcb729e4e711accb89",
    "run large-N seq kkt ladder at_convergence summary": "237434032eb7400bf54fd07ad797e2dd3d86795911375a3818f3ffa444c915c8",
}


# Overloaded cells that remove many users, one at a time, with the
# constants of three_users.scn: a one-station cell of 40 users spread over
# 50-400 m with four targets, and a two-station cell of 12 users spread
# between the stations with three targets. remove-loop drops 38 and 8 users.
REMOVAL_NETWORKS = {"one-station 40": 40, "two-station 12": 12}
REMOVAL_ALPHA2 = (20.0, 16.0, 25.0, 12.9492)


def removal_text(name: str, schedule: str) -> str:
    n = REMOVAL_NETWORKS[name]
    parts = [
        "[network]\nbandwidth_hz = 1e6\nnoise_w = 5e-15\n"
        "pathloss_exponent = 4\nshadowing = 0.097\n"
    ]
    for j in range(n):
        if n == 40:
            k = (17 * j) % n
            distances = repr(50.0 + 350.0 * (k + ((29 * k) % 31) / 31) / n)
            alpha2 = REMOVAL_ALPHA2[(3 * k) % 4]
        else:
            k = (5 * j) % n
            d1 = 60.0 + 440.0 * ((7 * k) % n + 0.37) / n
            distances = f"{d1!r} {560.0 - d1 + 30.0 * ((3 * k) % 5)!r}"
            alpha2 = REMOVAL_ALPHA2[k % 3]
        parts.append(
            f"[user u{k:02d}]\ndistances_m = {distances}\nalpha1 = 1e6\n"
            f"alpha2 = {alpha2!r}\nlambda = 1e-5\np_max = 3\nr_max = 47000\n"
        )
    parts.append(f"[run]\nschedule = {schedule}\n")
    return "\n".join(parts)


def _removal_digests(tmp: Path) -> dict[str, str]:
    outputs = {}
    for name in REMOVAL_NETWORKS:
        for schedule in SCHEDULES:
            path = tmp / "removal.scn"
            path.write_text(removal_text(name, schedule))
            outputs[f"remove-loop {name} {schedule}"] = _call(["remove-loop", str(path)])
    return {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}


REMOVAL_GOLDEN = {
    "remove-loop one-station 40 synchronous": "9bd0f5d016b2d71a6448e3c510ad27d18faa770d0ff4d4a4d9cc481662c1ce29",
    "remove-loop one-station 40 sequential": "8fdcf03ce1652cb7e0649d12d35caa1ab9df6f0bbcacdefdf5a96ba6b98e03e1",
    "remove-loop two-station 12 synchronous": "0a9a41f5473d19758d00d58a5426d17f5fbb1c83390f751d24c0b0d09f07e7e4",
    "remove-loop two-station 12 sequential": "867ca4ffffc289f05b7a3baababd628da753dad85c031899c87bfd9938327d3e",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _digests(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def large_n_digests(tmp_path_factory):
    return _large_n_digests(tmp_path_factory.mktemp("golden_large_n"))


@pytest.fixture(scope="module")
def removal_digests(tmp_path_factory):
    return _removal_digests(tmp_path_factory.mktemp("golden_removal"))


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_is_unchanged(digests, key):
    assert digests[key] == GOLDEN[key]


def test_every_large_n_output_is_pinned(large_n_digests):
    assert sorted(large_n_digests) == sorted(LARGE_N_GOLDEN)


@pytest.mark.parametrize("key", sorted(LARGE_N_GOLDEN))
def test_large_n_output_is_unchanged(large_n_digests, key):
    assert large_n_digests[key] == LARGE_N_GOLDEN[key]


def test_every_removal_output_is_pinned(removal_digests):
    assert sorted(removal_digests) == sorted(REMOVAL_GOLDEN)


@pytest.mark.parametrize("key", sorted(REMOVAL_GOLDEN))
def test_removal_output_is_unchanged(removal_digests, key):
    assert removal_digests[key] == REMOVAL_GOLDEN[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for table in (_digests(Path(tmp)), _large_n_digests(Path(tmp)), _removal_digests(Path(tmp))):
            for key, digest in table.items():
                print(f'    "{key}": "{digest}",')
