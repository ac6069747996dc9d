"""The README's CLI commands, run in README order into one output directory,
reproduce the recorded SHA-256 of every artifact they write; so do a few
``nd``, ``direction``, ``skew`` and ``render`` commands the README does
not run.

``readme_cli_digests.json`` maps "<command index>/<artifact>" to the digest
of that artifact right after the command ran; re-record it,
``ND_DIGESTS`` and ``SKEW_RENDER_DIGESTS`` when an artifact changes on
purpose.
"""

import hashlib
import json
import os
import shlex

import pytest

from horoshift.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))


def readme_commands():
    """argv of each ``horoshift`` command of the README's CLI section."""
    with open(os.path.join(HERE, os.pardir, "README.md"), encoding="utf-8") as f:
        text = f.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("horoshift ")]


def test_readme_cli_artifacts(tmp_path, monkeypatch):
    with open(os.path.join(HERE, "readme_cli_digests.json"),
              encoding="utf-8") as f:
        digests = json.load(f)
    commands = readme_commands()
    assert {int(key.split("/")[0]) for key in digests} == \
        set(range(len(commands)))
    monkeypatch.chdir(tmp_path)  # the commands write to out/
    for i, argv in enumerate(commands):
        assert main(argv) == 0, argv
        for key, want in sorted(digests.items()):
            index, name = key.split("/")
            if int(index) == i:
                got = hashlib.sha256((tmp_path / "out" / name).read_bytes())
                assert got.hexdigest() == want, (argv, name)


# the margin-kernel witness search on every farey:4 direction, and the
# Ledrappier k=3 scan at N=18 over farey:8+diag
ND_DIGESTS = {
    "nd --system ledrappier --k 2 --window 5 --grid farey:4 --method kernel": {
        "nd_report.json": "5d1d45d3e7555b7e0563963f0d30f6ca"
                          "3fb7be5986a4df8f0998e6caa98aed60",
        "nd_report.csv": "5bdefb9e2d2a6aba264ace60c16483c5"
                         "7107777ccf47baf9f2f5590b05cd3650",
        "direction_circle.svg": "c499ba18a5e2c34bc7308a8847dca7ca"
                                "75e6590caea389ab106cea834d90acd8",
    },
    "nd --system ledrappier --k 3 --window 18 --grid farey:8+diag": {
        "nd_report.json": "9957abb3b8abab228d803ac9ad755dc3"
                          "26fdeeabc8e200d4dfad4f59de4fcdda",
        "nd_report.csv": "28441c454c34dea5b5f9001c319bec71"
                         "bf80288126d6744917fd9fe4f4a4e768",
        "direction_circle.svg": "72bf37d02fcd392a053b020063222984"
                                "96d5e6095fb8ac652a61d613d6b3c165",
    },
    # filling enumeration on an SFT: every farey:1 direction of the hard
    # square (forbids 11 horizontally and vertically)
    "nd --system '{\"kind\":\"sft\",\"alphabet\":[0,1],\"forbidden\":"
    "[[[[0,0],1],[[1,0],1]],[[[0,0],1],[[0,1],1]]]}' "
    "--k 1 --window 1 --grid farey:1": {
        "nd_report.json": "44716fc3f5ba9495625d740d96c748cd"
                          "5018a8c65053412ffb41b25f46c218fc",
        "nd_report.csv": "9714f333f3f436368b970d21ca53e2a4"
                         "e0d72adacfdcaa2626b34da7b3fdf3b9",
        "direction_circle.svg": "8e89f59c5672fdceb6a546c4fc57933b"
                                "f4aa2ce1a1585ee3680260523987d7e3",
    },
    # the same at N=2, where each direction walks all 55,447 fillings
    "nd --system '{\"kind\":\"sft\",\"alphabet\":[0,1],\"forbidden\":"
    "[[[[0,0],1],[[1,0],1]],[[[0,0],1],[[0,1],1]]]}' "
    "--k 1 --window 2 --grid farey:1": {
        "nd_report.json": "56646a04c4687ad0bb1105378ebf4726"
                          "9a54aafc46f73691eef8782958820e36",
        "nd_report.csv": "9714f333f3f436368b970d21ca53e2a4"
                         "e0d72adacfdcaa2626b34da7b3fdf3b9",
        "direction_circle.svg": "c2ae19ae27a88cd41831eb288f1efe63"
                                "06883a4f288f052bd9631f7527286b43",
    },
    # and at N=3, where the fillings outnumber the default budget
    "direction --system '{\"kind\":\"sft\",\"alphabet\":[0,1],"
    "\"forbidden\":[[[[0,0],1],[[1,0],1]],[[[0,0],1],[[0,1],1]]]}' "
    "--dir 1,0 --k 1 --window 3": {
        "direction_report.json": "7a2855ff87e0853010dc59a6740b191d"
                                 "ac7cac0cfd1d661f8ac97d1e72d2aef2",
    },
    # the full shift: a single-difference witness on every farey:2 direction
    "nd --system fullshift --k 2 --window 4 --grid farey:2": {
        "nd_report.json": "56f14571f1e1baae9e4753e3146d2f86"
                          "d4aac22c4987cc34b24847875feb42eb",
        "nd_report.csv": "b6c56a3cffe463bfd1b97bee87bcc2f8"
                         "27b5af98ee873037be0bedfc85891cf7",
        "direction_circle.svg": "e1737df5dcdba963c20d66550f09aa7e"
                                "ed5b42cab7cb89e26c8b494fb1f43ed5",
    },
    # the enumeration oracle on Ledrappier: an extendable witness, then a
    # deterministic window
    "direction --system ledrappier --dir 0,-1 --method enumerate --k 1 "
    "--window 2": {
        "direction_report.json": "773d64fb3c0e0289080528eae3936a43"
                                 "30820992183ad45c92e82f53ea2a90b8",
    },
    "direction --system ledrappier --dir 1,0 --method enumerate --k 1 "
    "--window 1": {
        "direction_report.json": "039e3218856fb13d67cb5a40e9282330"
                                 "9be11abe600acdf54648d559ba7a1389",
    },
    # the margin kernel of a rule three rows tall (R3), and of a rule whose
    # repeated site cancels; both record window claims only (false
    # witnesses off the hull normals at this margin)
    "nd --system '{\"kind\":\"linear-gf2\",\"support\":"
    "[[0,2],[1,0],[1,1],[2,0]]}' --k 1 --window 2 --grid farey:2 "
    "--method kernel": {
        "nd_report.json": "9117a217365fe7abf91c87ab1f7fdd3a"
                          "c59c8dad37e6705933852abe2f9e462f",
        "nd_report.csv": "f8eadd0b94230a25848c073da3f3fa1e"
                         "0eafbb91872967d0281333a0c80a965c",
        "direction_circle.svg": "9d1586a34a23a900685dccd51fae69da"
                                "7f16b4a9d3ebab5f09f73fdc41e3374c",
    },
    "nd --system '{\"kind\":\"linear-gf2\",\"support\":"
    "[[0,0],[0,0],[1,0],[0,1]]}' --k 1 --window 3 --grid farey:2 "
    "--method kernel": {
        "nd_report.json": "faaea464b319fb7d19a2d2c2d22f88f0"
                          "4acf790c5476f0d1af0e9ef72504544c",
        "nd_report.csv": "b5829085bf0f22adcdad3f4adcb72cda"
                         "426dd97642b7b3d587c6261a0a582e49",
        "direction_circle.svg": "ac3da360158435b2daf7663076135d14"
                                "e93fbb1edd655c0e42c29c6b759c41b1",
    },
    # auto at k=1, where the origin is off every half-plane trace and is
    # settled by eliminating the trace rows of the [-N, N]^2 kernel
    "nd --system ledrappier --k 1 --window 5 --grid farey:4": {
        "nd_report.json": "122d9db6c72f5e8b4806c0ed811cbcfc"
                          "6153f460b0c29a7a164147537a14ff36",
        "nd_report.csv": "3abc3339c45f40399e09341b0fa546ec"
                         "27fe85619098d3f324dbdb4a2320ff56",
        "direction_circle.svg": "1d6f2aa0bfc97cdd2167790176579b94"
                                "fde68dd47a679c3b257fc5db8d0e7f1f",
    },
    # the benchmark's oracle-extend commands: 192 trace classes of two or
    # more fillings, each settled by one clamped extension walk over
    # [-5, 5]^2 or [-4, 4]^2, none of which finds a witness
    "direction --system ledrappier --dir 1,0 --method enumerate --window 2 "
    "--k 1": {
        "direction_report.json": "e3d8dd67a01c0ee8e45edd9c547fe67d"
                                 "6aa2ccb5d7c47803c1b95799bc6ca6c0",
    },
    "direction --system ledrappier --dir 1,0 --method enumerate --window 2 "
    "--k 2": {
        "direction_report.json": "157bd60eb6ceadec7945702644ba0278"
                                 "5fdc1bd432a9336dd1454fa686654865",
    },
}


# skew exponent images read from column ranges (the four quarter-space
# openings, both diagonal half-planes, a rational linear half-plane) and
# from the per-cell scan (a sampled ray), and ball rasters read from row
# intervals in each l^p norm of Z^2
SKEW_RENDER_DIGESTS = {
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"quarter-space\",\"apex\":[2,2],\"opening\":\"-y\"}' "
    "--k 1 --window 4": {
        "skew_report.json": "6349fddb38b30916033d5afe666bfd8d"
                            "1d2b02b0d10e5ddf0c2a1f8866f3348f",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"quarter-space\",\"apex\":[0,-1],\"opening\":\"+y\"}' "
    "--k 1 --window 4": {
        "skew_report.json": "e6e1abe05826604f703561eaeacc3600"
                            "c61f888c0de1cd5d24e24c033c829885",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"quarter-space\",\"apex\":[-1,1],\"opening\":\"+x\"}' "
    "--k 1 --window 4": {
        "skew_report.json": "cca797ae70f38beee6ac2b024675adfc"
                            "6281c4a574ca7c9a09472225453121c4",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"quarter-space\",\"apex\":[3,-2],\"opening\":\"-x\"}' "
    "--k 1 --window 4": {
        "skew_report.json": "c9598de2ae3f57fa0aa45a5acf624b88"
                            "7ce39fa0dec80d5399ae68af769d1c9f",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"halfplane-diagonal\",\"side\":-1}' --k 1 --window 4": {
        "skew_report.json": "d68a9cdbbc66eee24050031b1c5278ef"
                            "5ab0643c1cb576cbe118fd70aadeb8f5",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"halfplane-antidiagonal\",\"side\":1}' --k 1 --window 4": {
        "skew_report.json": "116a45008947f89ca0712a98b08863e6"
                            "d6675eca55579187693d42d6ad004e30",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"linear\",\"v\":[1,2]}' --k 1 --window 4": {
        "skew_report.json": "a18c1f4285d25df554070ac1a7cedfc1"
                            "a953876b7d1135f66d201e217c3ecf6a",
    },
    "skew --alpha 1 --beta=-2 --horoball "
    "'{\"kind\":\"sampled-l1-ray\",\"ray\":[1,0]}' --k 1 --window 4": {
        "skew_report.json": "735b3491580cab80db606b95ee34993f"
                            "720d78b16dae41f98b9c715a32ff716f",
    },
    "render horoball --group z2-l1 --centers ray:1,0 --t 100 --window 20": {
        "horoball.pgm": "b3a232b37bdf1e3e7530fa6c708644ba"
                        "9be16b31f60206dfb046acab3fe1bbc8",
    },
    "render horoball --group z2-l2 --centers ray:2,1 --t 9 --window 25": {
        "horoball.pgm": "494e20836059d9115b8838a921c530bf"
                        "4c2979dc4f3e38803595a5528dbcd42f",
    },
    "render horoball --group z2-linf --centers ray:1,-1 --t 12 "
    "--window 15": {
        "horoball.pgm": "3e630bcd9176b6133731c75e83a03130"
                        "3b20c9eeb373efb8d4468589c798531b",
    },
}


def _check_artifacts(tmp_path, command, digests):
    assert main(shlex.split(command) + ["--out", str(tmp_path)]) == 0
    for name, want in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes())
        assert got.hexdigest() == want, name


@pytest.mark.parametrize("command", ND_DIGESTS)
def test_nd_artifacts(tmp_path, command):
    _check_artifacts(tmp_path, command, ND_DIGESTS[command])


@pytest.mark.parametrize("command", SKEW_RENDER_DIGESTS)
def test_skew_and_render_artifacts(tmp_path, command):
    _check_artifacts(tmp_path, command, SKEW_RENDER_DIGESTS[command])
