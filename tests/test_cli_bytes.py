"""Byte stability of the CLI: stdout and exit code of a fixed battery.

Each command's output is frozen as the sha256 of its exit code and stdout
(``"%d\\n%s" % (code, stdout)``), in ``sha256sum`` layout below.  A change
to any output byte or exit code names the command it came from.  To
refreeze after a deliberate output change, print ``digest(...)`` for each
command of ``battery``.
"""

import hashlib
import json
from importlib import resources

import pytest

from fglab.cli import main
from fglab.words import omega

FIXTURES = resources.files("fglab") / "fixtures"
FIXTURE_NAMES = ("kernel_d2.json", "kernel_d3.json", "paper_index3.json")
MAPS = ((1, 0), (2, 1), (1, 3))
# kernels past the d = 2..16 grid: x preferred, and nothing preferred
# (basis s1..sk, representatives x^k and x^-k)
LARGE_KERNELS = ((257, (1, 0)), (257, (2, 0)))
# infinite-index generator files over a, b: (generators, a word of the
# subgroup, a word outside it)
GENERATOR_FILES = {
    "gens_a.json": (["a"], "a^3", "a b"),
    "gens_a_bab.json": (["a", "b a b^-1"], "a b a^2 b^-1", "b"),
    "gens_trivial.json": ([], "a a^-1", "a"),
}


def kernel_name(d, f):
    return "kernel_%d_%d_%d.json" % ((d,) + f)


def battery():
    """(group, argv) for every command; a kernel file appears by name."""
    for d in range(2, 17):
        for f in MAPS:
            name = kernel_name(d, f)
            for query in ("index", "normal", "basis"):
                yield "subgroup", ["--json", "subgroup", query, name]
                yield "subgroup", ["subgroup", query, name]
            yield "subgroup", ["--json", "subgroup", "rewrite", name,
                               "x y x^-1 y^-1 x^%d y^%d" % (d, d)]
    for d, f in LARGE_KERNELS:
        yield "subgroup", ["--json", "subgroup", "basis", kernel_name(d, f)]
    for fixture in FIXTURE_NAMES:
        for query in ("index", "normal", "basis"):
            yield "fixtures", ["--json", "subgroup", query, fixture]
    for d in (2, 3, 5, 7, 16):
        for m in range(2, 10):
            args = ["witness", "--d", str(d), "--m", str(m)]
            yield "witness", ["--json"] + args
            yield "witness", args
    for d in (2, 3, 5):
        for m in (10, 11, 12):
            yield "witness", ["--json", "witness", "--d", str(d), "--m", str(m)]
    yield "witness", ["--json", "witness", "--d", "257", "--m", "3"]
    yield "verify", ["--json", "verify"]
    yield "verify", ["verify", "--d-max", "16"]
    # the shape of perfbench's largest verify op
    yield "verify", ["--json", "verify", "--d-max", "24", "--n-max", "250"]
    yield "verify", ["verify", "--d-max", "24", "--n-max", "250"]
    for d in (2, 3, 5, 16):
        for n in range(15):
            yield "omega", ["subgroup", "rewrite", kernel_name(d, (1, 0)),
                            "omega(%d)" % n]
    for name, (_, member, outsider) in GENERATOR_FILES.items():
        for query in ("index", "normal", "basis"):
            yield "generators", ["--json", "subgroup", query, name]
            yield "generators", ["subgroup", query, name]
        for word in (member, outsider):
            yield "generators", ["--json", "subgroup", "rewrite", name, word]
        yield "generators", ["subgroup", "rewrite", name, member]


def key(argv):
    return " ".join(argv)


def digest(code, out):
    return hashlib.sha256(("%d\n%s" % (code, out)).encode()).hexdigest()


@pytest.fixture(scope="module")
def kernel_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("kernels")
    for d, f in [(d, f) for d in range(2, 17) for f in MAPS] + list(LARGE_KERNELS):
        (path / kernel_name(d, f)).write_text(json.dumps(
            {"alphabet": ["x", "y"],
             "kernel": {"d": d, "f": {"x": f[0], "y": f[1]}}}))
    for name, (gens, _, _) in GENERATOR_FILES.items():
        (path / name).write_text(json.dumps(
            {"alphabet": ["a", "b"], "generators": gens}))
    return path


def resolve(argv, kernel_dir):
    """argv with kernel, generator and fixture names as paths, omega(n)
    spelled."""
    out = []
    for arg in argv:
        if arg in FIXTURE_NAMES:
            arg = str(FIXTURES / arg)
        elif arg.startswith(("kernel_", "gens_")):
            arg = str(kernel_dir / arg)
        elif arg.startswith("omega("):
            arg = str(omega(int(arg[6:-1])))
        out.append(arg)
    return out


def test_battery_is_frozen_whole():
    assert sorted(key(argv) for _, argv in battery()) == sorted(GOLDEN)


@pytest.mark.parametrize("group", ["subgroup", "fixtures", "witness",
                                   "verify", "omega", "generators"])
def test_output_bytes_match(group, kernel_dir, capsys):
    changed = []
    for g, argv in battery():
        if g != group:
            continue
        code = main(resolve(argv, kernel_dir))
        if digest(code, capsys.readouterr().out) != GOLDEN[key(argv)]:
            changed.append(key(argv))
    assert not changed, "output changed for: " + "; ".join(changed)


GOLDEN = {command: sha for sha, command in (
    line.split("  ", 1) for line in """
41fa52c63fb1275983bb129f51c05a6dc78d0ee64acfe01f1ccab9ad28f21ced  --json subgroup basis kernel_257_1_0.json
482c12408289f7b764a6c3d837660b59dd33e78e904e8dc5077d824a545f6087  --json subgroup basis kernel_257_2_0.json
a733b54bee49f720bdc5fdd68768d0585cffe515756001379221f34a7956bede  --json witness --d 257 --m 3
02e08981c709c82ef330c266aa05286db938502e2870e097b35852104545c2a1  --json subgroup index kernel_2_1_0.json
409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d  subgroup index kernel_2_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_2_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_2_1_0.json
209236dc1f9016bc05022b3b26898da2a0ae5439d59589a3a1b44adcb9fd4359  --json subgroup basis kernel_2_1_0.json
701afaf2e55e6c2c5f8fb7e55759dce655620b1428b942f10429adf439fd1ca1  subgroup basis kernel_2_1_0.json
b5e49a50e184bd0c3a58b61f78b72ab24a7a55e610ce7836d6d07d455047eea0  --json subgroup rewrite kernel_2_1_0.json x y x^-1 y^-1 x^2 y^2
02e08981c709c82ef330c266aa05286db938502e2870e097b35852104545c2a1  --json subgroup index kernel_2_2_1.json
409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d  subgroup index kernel_2_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_2_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_2_2_1.json
25ec9c2f4bb2e6157257284935f0446f8c84962d8788813abbd01ae9b9f60f1d  --json subgroup basis kernel_2_2_1.json
2c77e75f62da031696c6d5415de91452c1ec1d6e275ef1face12f97b30ff2df8  subgroup basis kernel_2_2_1.json
df9504a660d6ce15d85ec93bdb9bf09fe93a4c070eb67a2948045b034fc6a1b7  --json subgroup rewrite kernel_2_2_1.json x y x^-1 y^-1 x^2 y^2
02e08981c709c82ef330c266aa05286db938502e2870e097b35852104545c2a1  --json subgroup index kernel_2_1_3.json
409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d  subgroup index kernel_2_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_2_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_2_1_3.json
d655040b240927309f225877ff9afea39450aa2fd5388904ebd2b584cb7314a8  --json subgroup basis kernel_2_1_3.json
05e80b09f146991127fca66954450e4109b5332a18f4e786fcfc1f0c006781f1  subgroup basis kernel_2_1_3.json
e1abc64cb367e862caeff995477a7942d2bf51320129d570f55cc55669d2403e  --json subgroup rewrite kernel_2_1_3.json x y x^-1 y^-1 x^2 y^2
4a3ab12d89a7cbbb58dc9511d6245e90a53c75a9c1ae5da313a8b43f1971e3ba  --json subgroup index kernel_3_1_0.json
b9490968067ba44d92202e000cd93ac898897cd1744b8a89f02f0108d659b95a  subgroup index kernel_3_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_3_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_3_1_0.json
c41f241d52208961679f41976b579d049e57a83fc3fec9c4722a5b92c81558f4  --json subgroup basis kernel_3_1_0.json
ec0359c41c5a6da854e10cbfa2adb65a56b37cf5cd9c80ebff36ad15d9382d3c  subgroup basis kernel_3_1_0.json
070436923a219033dd954905e232add32e28060bf014c903dad804372859e592  --json subgroup rewrite kernel_3_1_0.json x y x^-1 y^-1 x^3 y^3
4a3ab12d89a7cbbb58dc9511d6245e90a53c75a9c1ae5da313a8b43f1971e3ba  --json subgroup index kernel_3_2_1.json
b9490968067ba44d92202e000cd93ac898897cd1744b8a89f02f0108d659b95a  subgroup index kernel_3_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_3_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_3_2_1.json
3cf1722ddf5bf520c34ef0772e86b076988eddab279dc3dc8086138689a6cd13  --json subgroup basis kernel_3_2_1.json
79cebdde6e1f7ecd04f18bedc88e0b08a5c1c6cc1b9e9b8acb7fbbe62868eedf  subgroup basis kernel_3_2_1.json
01bbfcd37deb0345ae856b149b570a2047f785386c89969716b4cff82bfd67bb  --json subgroup rewrite kernel_3_2_1.json x y x^-1 y^-1 x^3 y^3
4a3ab12d89a7cbbb58dc9511d6245e90a53c75a9c1ae5da313a8b43f1971e3ba  --json subgroup index kernel_3_1_3.json
b9490968067ba44d92202e000cd93ac898897cd1744b8a89f02f0108d659b95a  subgroup index kernel_3_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_3_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_3_1_3.json
c41f241d52208961679f41976b579d049e57a83fc3fec9c4722a5b92c81558f4  --json subgroup basis kernel_3_1_3.json
ec0359c41c5a6da854e10cbfa2adb65a56b37cf5cd9c80ebff36ad15d9382d3c  subgroup basis kernel_3_1_3.json
070436923a219033dd954905e232add32e28060bf014c903dad804372859e592  --json subgroup rewrite kernel_3_1_3.json x y x^-1 y^-1 x^3 y^3
aa35806dcf1f9504a0ea8572008f10f3c8ec8941ad0e97f3d3e54e8839024dcd  --json subgroup index kernel_4_1_0.json
452e39c241ac7c3d1fe29b5529a5e2ea849dff1f35727ab388946535f4f2f0f8  subgroup index kernel_4_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_4_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_4_1_0.json
4a0cdb29ac7cc3693dc3cd41dfcc264142b71b3f5175390219e7a7d26b05106b  --json subgroup basis kernel_4_1_0.json
5a9e76b9496912ed8ca55e7507eb290f0a4341c103d267fc54d30a5883b6c0d4  subgroup basis kernel_4_1_0.json
1a7db3c89da5961f8252e0a2164e5ed2d7c25cbb31c0a06968fbcde3ecdf8c41  --json subgroup rewrite kernel_4_1_0.json x y x^-1 y^-1 x^4 y^4
aa35806dcf1f9504a0ea8572008f10f3c8ec8941ad0e97f3d3e54e8839024dcd  --json subgroup index kernel_4_2_1.json
452e39c241ac7c3d1fe29b5529a5e2ea849dff1f35727ab388946535f4f2f0f8  subgroup index kernel_4_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_4_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_4_2_1.json
f8242d1ba182d888202048eb6b88abb8e8cc4e84056ebf39a78f04559c4a3313  --json subgroup basis kernel_4_2_1.json
5f9211ed9db9197e20d9593ecde7f6b39035724d384f64a3ae6b13da3c7c8040  subgroup basis kernel_4_2_1.json
7a864f268cedc0b5ca457c04953ae2432664cf4d83bc7c21259013d9a229e9b8  --json subgroup rewrite kernel_4_2_1.json x y x^-1 y^-1 x^4 y^4
aa35806dcf1f9504a0ea8572008f10f3c8ec8941ad0e97f3d3e54e8839024dcd  --json subgroup index kernel_4_1_3.json
452e39c241ac7c3d1fe29b5529a5e2ea849dff1f35727ab388946535f4f2f0f8  subgroup index kernel_4_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_4_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_4_1_3.json
3fe680879f00826d4fa5e84654e67e253524d53f9fe9a4a2fd314e8f1ad12fa6  --json subgroup basis kernel_4_1_3.json
c94846da788a9d715745f02e4c1050d3af70cdd9fe62bfc8dd05fa9d1c53dcc6  subgroup basis kernel_4_1_3.json
fc5ec386cff923bcaa922fd69d5cee09abef55bc46b0853bb2e446e2256a100f  --json subgroup rewrite kernel_4_1_3.json x y x^-1 y^-1 x^4 y^4
317bf954c1e749ccf5cc99653bc322733f65bc15f2fc5702f8ee8433c541caf2  --json subgroup index kernel_5_1_0.json
d2a8c09af50702658a26c8de0e35154f08e23973b8d733f87afc26586646afdf  subgroup index kernel_5_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_5_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_5_1_0.json
f0669fb7174308061b7e6bcf95f69e65390ba336eed6e5191a7e6ff93d278d1a  --json subgroup basis kernel_5_1_0.json
e40e193b9f8f26ccb4e90afe0f2a9f80f70d0b3defe26ea634946fb7065d92df  subgroup basis kernel_5_1_0.json
2c7c55d69362dcc363838dc68e4ee83f780de11b9f14cf18220f1674abd4ea82  --json subgroup rewrite kernel_5_1_0.json x y x^-1 y^-1 x^5 y^5
317bf954c1e749ccf5cc99653bc322733f65bc15f2fc5702f8ee8433c541caf2  --json subgroup index kernel_5_2_1.json
d2a8c09af50702658a26c8de0e35154f08e23973b8d733f87afc26586646afdf  subgroup index kernel_5_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_5_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_5_2_1.json
e94c9e26e38d7b16530f44754c0d91cdf22fd13b78a04f9e764857df9182ef3e  --json subgroup basis kernel_5_2_1.json
37316e36530c3603c4496da5cd46967bdebb6605d54baef42742e8eb4ff4a7b3  subgroup basis kernel_5_2_1.json
ee8b9f4d955f3d5fd4fdfd88d76e0c194dfcd87d57b803ad40eea22937559537  --json subgroup rewrite kernel_5_2_1.json x y x^-1 y^-1 x^5 y^5
317bf954c1e749ccf5cc99653bc322733f65bc15f2fc5702f8ee8433c541caf2  --json subgroup index kernel_5_1_3.json
d2a8c09af50702658a26c8de0e35154f08e23973b8d733f87afc26586646afdf  subgroup index kernel_5_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_5_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_5_1_3.json
9048495614923720431497a009d042631207da95a6e20ee4527a19cc04323e6e  --json subgroup basis kernel_5_1_3.json
b8dc975201b7afcd064b6765af5bae8158689f05d65da016623f75be3361b608  subgroup basis kernel_5_1_3.json
2058a94246a3e166b25e6ce5d9b55b4235c2a9e001381fcbda905721366c6f80  --json subgroup rewrite kernel_5_1_3.json x y x^-1 y^-1 x^5 y^5
f56536a1956a9f5813b83270b564d7e9e1927e5eaa489e068fd8a3983b3a1863  --json subgroup index kernel_6_1_0.json
df4f9b728b7582d27215a2a8164a6838bd7a9b73801ebd161a1a39ed6a23d434  subgroup index kernel_6_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_6_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_6_1_0.json
185dc6e0668713c0a7677f5a6efea8bdd0a9cb8335fa9e8fc981fa50212f5d7a  --json subgroup basis kernel_6_1_0.json
c53da678ecf599f0f03dd0001c72b54fb236ba3347e51f8b08bb424d09b3ba5e  subgroup basis kernel_6_1_0.json
a331ce68d590ffd8aac0565c2ebc92f9527278cbd3b6cfe548df761bc2af2b7e  --json subgroup rewrite kernel_6_1_0.json x y x^-1 y^-1 x^6 y^6
f56536a1956a9f5813b83270b564d7e9e1927e5eaa489e068fd8a3983b3a1863  --json subgroup index kernel_6_2_1.json
df4f9b728b7582d27215a2a8164a6838bd7a9b73801ebd161a1a39ed6a23d434  subgroup index kernel_6_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_6_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_6_2_1.json
bd62b9b2808e81885b1d0cbb0aecd59f3cdccfc4b4e5d9d1596ee4620c2e00c0  --json subgroup basis kernel_6_2_1.json
6240c13d11215ce6983a7605aff195b1230309579a8f0e4c53615aef4c6e7a19  subgroup basis kernel_6_2_1.json
4ab5ab0b6f23e5575b179fbcefa10edb61fc7b35fc4be8bf485d93e0ad875e91  --json subgroup rewrite kernel_6_2_1.json x y x^-1 y^-1 x^6 y^6
f56536a1956a9f5813b83270b564d7e9e1927e5eaa489e068fd8a3983b3a1863  --json subgroup index kernel_6_1_3.json
df4f9b728b7582d27215a2a8164a6838bd7a9b73801ebd161a1a39ed6a23d434  subgroup index kernel_6_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_6_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_6_1_3.json
3b4097a4db0ba2340650e2d9e4391fe1705cde55d41dc7cd9f522a857ce92c17  --json subgroup basis kernel_6_1_3.json
37e55b3702f6f390f653f0da5af3a9513c434910b13bd3cea783492c6fac5f55  subgroup basis kernel_6_1_3.json
4ae13b52cdcd17854afa739295830fb7e1091fef8881a8cc54cb101dea8c2f05  --json subgroup rewrite kernel_6_1_3.json x y x^-1 y^-1 x^6 y^6
ff2683e88f37eb5bb995c1a7150568420307126793cd69f366043739a3c9d30c  --json subgroup index kernel_7_1_0.json
2b4debfa02d0b86cd102682784dc522991ecb4a5f61f14b9cf435a1ab45e4a3a  subgroup index kernel_7_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_7_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_7_1_0.json
bd8f62eb8421c808db2724be1451b23cbeedcc9ea7560d78128ff234a70d9850  --json subgroup basis kernel_7_1_0.json
85d8167a3ef846c287ee109bfd82b44dee5ab3450309a0d661a16af62934ab51  subgroup basis kernel_7_1_0.json
0267babb18478279c5046a829b9fcc670c4e1efc14ab3b2b8a7f9abb8157069a  --json subgroup rewrite kernel_7_1_0.json x y x^-1 y^-1 x^7 y^7
ff2683e88f37eb5bb995c1a7150568420307126793cd69f366043739a3c9d30c  --json subgroup index kernel_7_2_1.json
2b4debfa02d0b86cd102682784dc522991ecb4a5f61f14b9cf435a1ab45e4a3a  subgroup index kernel_7_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_7_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_7_2_1.json
168bdbe3998b39237131eacc168983ce9da06d076186e97d19334d1083c08402  --json subgroup basis kernel_7_2_1.json
ccce694e6f9dd08b10b90076840f1c185ca56670ed1205911dbc55fda5587d0b  subgroup basis kernel_7_2_1.json
aa63b42b34e9f07587dad66bae690844848801728fe05f18e6cf9f26eb8e58cd  --json subgroup rewrite kernel_7_2_1.json x y x^-1 y^-1 x^7 y^7
ff2683e88f37eb5bb995c1a7150568420307126793cd69f366043739a3c9d30c  --json subgroup index kernel_7_1_3.json
2b4debfa02d0b86cd102682784dc522991ecb4a5f61f14b9cf435a1ab45e4a3a  subgroup index kernel_7_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_7_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_7_1_3.json
92bba380dc99bf2876f5bb2f35705e0d6a453f3bac89f235abedd17013b1ae92  --json subgroup basis kernel_7_1_3.json
b74885a2a0c95cfb186595d15e5e25256e564db115b4afafc05a4c1b28dce13a  subgroup basis kernel_7_1_3.json
3e29002732e1b1927bc1c8a9a0ffd43cc8bc0fd0360a01e5a65179a70b0cc937  --json subgroup rewrite kernel_7_1_3.json x y x^-1 y^-1 x^7 y^7
b13f09658c4360c800ff0dae280b6d6061c433f523b58712da878c3b0420b129  --json subgroup index kernel_8_1_0.json
42751d2ee956ba67daf5fac120267950b5232ccc9f7561b26763f35b0a42440c  subgroup index kernel_8_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_8_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_8_1_0.json
bd393e11788cad544b4794879c514110ecc265741c3c2fbc585f0f81f3252eef  --json subgroup basis kernel_8_1_0.json
e2d7997c65322c4738680daf32f5023ac2f7c838c29e651c358bf354521a6399  subgroup basis kernel_8_1_0.json
d279c0c5b27fa43471d29bd2d343cd2341169acdab0674198801317bd1724f84  --json subgroup rewrite kernel_8_1_0.json x y x^-1 y^-1 x^8 y^8
b13f09658c4360c800ff0dae280b6d6061c433f523b58712da878c3b0420b129  --json subgroup index kernel_8_2_1.json
42751d2ee956ba67daf5fac120267950b5232ccc9f7561b26763f35b0a42440c  subgroup index kernel_8_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_8_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_8_2_1.json
0e8b5c480626b2a6b47877f9618cbe4198c21ae1e83ca968a5ddf80ff03dfa30  --json subgroup basis kernel_8_2_1.json
ba814b15580a8b527261e458d9b1a26186338485e7e0b6216a7a21718628d15b  subgroup basis kernel_8_2_1.json
099786d5e62067020db756a91732b4b48d475ace61214192feebe71ce7d27bf5  --json subgroup rewrite kernel_8_2_1.json x y x^-1 y^-1 x^8 y^8
b13f09658c4360c800ff0dae280b6d6061c433f523b58712da878c3b0420b129  --json subgroup index kernel_8_1_3.json
42751d2ee956ba67daf5fac120267950b5232ccc9f7561b26763f35b0a42440c  subgroup index kernel_8_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_8_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_8_1_3.json
b608f3e4a505a9c612610bab63e9c4491261c36492f515141651cf5e751d4ca0  --json subgroup basis kernel_8_1_3.json
0e036e11ddae9f88be83e4636e85d858c748ec373397a5371f5bbd7951b610d3  subgroup basis kernel_8_1_3.json
f00ac31b350c5eafc22d3b68334319bdee958efa431de87491970725df26497e  --json subgroup rewrite kernel_8_1_3.json x y x^-1 y^-1 x^8 y^8
e70f3911b0d0b92069b4a8ea5c741fabce9ae20ed82d39dc8eea6a7655bfcae8  --json subgroup index kernel_9_1_0.json
8d7c10fa712cbe4879ad8595846c24e5083da71b23fb5f3e966005bea31fdaf6  subgroup index kernel_9_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_9_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_9_1_0.json
bb90bd7be2222efb21f39db40e9af9a7583a61fc111c3b4e5735e60ee3e651b4  --json subgroup basis kernel_9_1_0.json
dada71c0f868fed1e0d15d30a2a7989f3c1a17ee15a9da5bfe3358fc560bbfa8  subgroup basis kernel_9_1_0.json
bfeac2728cd9b8291283f05b899dd8f32dab87ed64f8530590bfedcbedfb800c  --json subgroup rewrite kernel_9_1_0.json x y x^-1 y^-1 x^9 y^9
e70f3911b0d0b92069b4a8ea5c741fabce9ae20ed82d39dc8eea6a7655bfcae8  --json subgroup index kernel_9_2_1.json
8d7c10fa712cbe4879ad8595846c24e5083da71b23fb5f3e966005bea31fdaf6  subgroup index kernel_9_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_9_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_9_2_1.json
63dfa303ddd3239e0bb85e36b2e3e022e7b71289daed95ef2c76ade0dab93be5  --json subgroup basis kernel_9_2_1.json
ae4fad5053176105120fa70501e1ac7344f4c45e9dc3cc3a2648bc29efb2b510  subgroup basis kernel_9_2_1.json
9b84f17735ec280f32fe1ed0bec5c30a2776f16d50be9340e63b2b485360a63d  --json subgroup rewrite kernel_9_2_1.json x y x^-1 y^-1 x^9 y^9
e70f3911b0d0b92069b4a8ea5c741fabce9ae20ed82d39dc8eea6a7655bfcae8  --json subgroup index kernel_9_1_3.json
8d7c10fa712cbe4879ad8595846c24e5083da71b23fb5f3e966005bea31fdaf6  subgroup index kernel_9_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_9_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_9_1_3.json
ad44cc1df2ca5f9c8b5b2f63b2a7d6d30772f0beae8b484c0ffdbca437ac2bd6  --json subgroup basis kernel_9_1_3.json
3842078e7cf3b9270f81cd6cd94f450f3c4d25283ef5d0a6117d6732dd47c04b  subgroup basis kernel_9_1_3.json
1e98ea9052a392d30e4d8df3c1e8aa81ae8e254bfd0273abb90afc8851e322d0  --json subgroup rewrite kernel_9_1_3.json x y x^-1 y^-1 x^9 y^9
81d35c651e79497c7c43b1cc15625fa3b9cec78d1ac671f83b66a6422c37c084  --json subgroup index kernel_10_1_0.json
aad60d04833bad9e63c739cb50e949b634c8a1816370c2d112827d86d7b3dfac  subgroup index kernel_10_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_10_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_10_1_0.json
fc39f2d496c8368355f483f5863ced5985317fc5ccbebe348edcb2c5f278f71b  --json subgroup basis kernel_10_1_0.json
61391aad883aa4e945bf8c283ae5d9af036d71e384e4e2c59a45966ff80cba50  subgroup basis kernel_10_1_0.json
63852c0cb32a32602d46fe97ae2f8fbb1bbb87f44222dced2209f41d43c19dd7  --json subgroup rewrite kernel_10_1_0.json x y x^-1 y^-1 x^10 y^10
81d35c651e79497c7c43b1cc15625fa3b9cec78d1ac671f83b66a6422c37c084  --json subgroup index kernel_10_2_1.json
aad60d04833bad9e63c739cb50e949b634c8a1816370c2d112827d86d7b3dfac  subgroup index kernel_10_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_10_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_10_2_1.json
92da0d6fe5b79e98a3b1c99ec7877093609b6fabab99bf850abb69906ae31cc0  --json subgroup basis kernel_10_2_1.json
d9c1a4c20e6cbc6796973eddb888c50604bcc92a695434220f27e2ccaff08abb  subgroup basis kernel_10_2_1.json
b8aadbcea04e9417338d12105f668ba41b19deaeb1f3563f3156098aa55cbe3d  --json subgroup rewrite kernel_10_2_1.json x y x^-1 y^-1 x^10 y^10
81d35c651e79497c7c43b1cc15625fa3b9cec78d1ac671f83b66a6422c37c084  --json subgroup index kernel_10_1_3.json
aad60d04833bad9e63c739cb50e949b634c8a1816370c2d112827d86d7b3dfac  subgroup index kernel_10_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_10_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_10_1_3.json
121d39978fe3bba17f18e8d29b4c749e1ecb20a11a9c1c5bdccd33b3f114ce05  --json subgroup basis kernel_10_1_3.json
fe189daee71d8b068837930220e53deb465177e97eb85fafcd8ef6b10aef9f42  subgroup basis kernel_10_1_3.json
193f2eb941e2266dd5b0b3a3f8b35c28f6752700b2558a8ebeb1197fabd12e21  --json subgroup rewrite kernel_10_1_3.json x y x^-1 y^-1 x^10 y^10
a927b77abc2f5d2814e003d9767485b238ee108ff29ba12469a86600675eaecc  --json subgroup index kernel_11_1_0.json
5ea4d6bf04a3424c9a9b9bc94ea0a3e1a8e539a2caff80f7eef1d4030ac43e59  subgroup index kernel_11_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_11_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_11_1_0.json
022675812c9bafb67b5623cfe3f314088e574574f6bb34204985a6a587a96a9c  --json subgroup basis kernel_11_1_0.json
f3c82de4025f269434f36d6cfa9a35e9df25bc63b9cbb8ec5b23dd546c30c22d  subgroup basis kernel_11_1_0.json
c758ff8f433ab1b90f544094b5e5c63b490739f17eb50a6962b02f13ff1e71e2  --json subgroup rewrite kernel_11_1_0.json x y x^-1 y^-1 x^11 y^11
a927b77abc2f5d2814e003d9767485b238ee108ff29ba12469a86600675eaecc  --json subgroup index kernel_11_2_1.json
5ea4d6bf04a3424c9a9b9bc94ea0a3e1a8e539a2caff80f7eef1d4030ac43e59  subgroup index kernel_11_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_11_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_11_2_1.json
c9ea35f41d4601f236345826619b78004bfcf844ed37305132ceda3f3ce5c8dd  --json subgroup basis kernel_11_2_1.json
75ae3342edf49b705be40222c316abbdf801bd1f73bab533f6f9970e27d8efd6  subgroup basis kernel_11_2_1.json
7bc0ec8180d42e8e2d109caa09e286db9eb508a3b6122df8e6d469f28943d4b0  --json subgroup rewrite kernel_11_2_1.json x y x^-1 y^-1 x^11 y^11
a927b77abc2f5d2814e003d9767485b238ee108ff29ba12469a86600675eaecc  --json subgroup index kernel_11_1_3.json
5ea4d6bf04a3424c9a9b9bc94ea0a3e1a8e539a2caff80f7eef1d4030ac43e59  subgroup index kernel_11_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_11_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_11_1_3.json
255e77d5dd952a938792de40ec20b62cc0fec6ceeec389d3f50419b55771c557  --json subgroup basis kernel_11_1_3.json
5db61d3b51d20bddea3804d719154b046007f65301c19c348bff16d6632cb957  subgroup basis kernel_11_1_3.json
983b5b79f6c96372ec597ba1f386f0139149ae8fd6e50c123c14a6c8738ded45  --json subgroup rewrite kernel_11_1_3.json x y x^-1 y^-1 x^11 y^11
6f57afcd93a7bcfe14a3b96d6d60269535a89c76da8ee48c5d484d5ca887c24f  --json subgroup index kernel_12_1_0.json
ce444ce9c139181ceda2b147b072e18e08e76b53514c8859b8a5a0e7331c21d8  subgroup index kernel_12_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_12_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_12_1_0.json
553e19d84ee7260f62cf9e60f2be923c0467ac1b2d5bbfeec3b80bfc7d533a9d  --json subgroup basis kernel_12_1_0.json
569022594e039fc96513d096f3d794eacaab2667c587d60e0e5db60078f1efeb  subgroup basis kernel_12_1_0.json
6dbadf70762401bd71d62c9c25b3b717b0a4a9a3b6e476393137f16f9382c150  --json subgroup rewrite kernel_12_1_0.json x y x^-1 y^-1 x^12 y^12
6f57afcd93a7bcfe14a3b96d6d60269535a89c76da8ee48c5d484d5ca887c24f  --json subgroup index kernel_12_2_1.json
ce444ce9c139181ceda2b147b072e18e08e76b53514c8859b8a5a0e7331c21d8  subgroup index kernel_12_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_12_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_12_2_1.json
d0c2fb4e3f77f7c635bc7acd2230bae0dd7846cb33e4361f30c5efbb33839918  --json subgroup basis kernel_12_2_1.json
9ae54f3d715982658384e3fa958066a7c08f5a56038aa880c97ced3061ded33b  subgroup basis kernel_12_2_1.json
ed8471d8d7135b18a367a3ed436088bdf5ae953bddbf682db72b5dd48691df31  --json subgroup rewrite kernel_12_2_1.json x y x^-1 y^-1 x^12 y^12
6f57afcd93a7bcfe14a3b96d6d60269535a89c76da8ee48c5d484d5ca887c24f  --json subgroup index kernel_12_1_3.json
ce444ce9c139181ceda2b147b072e18e08e76b53514c8859b8a5a0e7331c21d8  subgroup index kernel_12_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_12_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_12_1_3.json
6c617356d471be89df0c17b7310493a623251c02889a8e69d0403ac8830ff792  --json subgroup basis kernel_12_1_3.json
e7a648c385c59594b8534fdaa702d67a5ebddfc46094a09d1cffe411f9ce8e37  subgroup basis kernel_12_1_3.json
5877655d0feff4427ef8109772983b8236edbba5089791969bfdc45747ca55d0  --json subgroup rewrite kernel_12_1_3.json x y x^-1 y^-1 x^12 y^12
353c8db4eecf4b7d86953c2dfd27c848dfff7920d2926c8dc7a01c32825f9fc3  --json subgroup index kernel_13_1_0.json
eaf88e03121745409c19114f37648b20c7007949ff5a2dcfad8a3f35526aedbc  subgroup index kernel_13_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_13_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_13_1_0.json
7e738a315a64baa9129e5930ddb3d2891cc5ae1604c3acfb8a759c57a5c7487a  --json subgroup basis kernel_13_1_0.json
4df2d84a6047fcaa8c91b40c335b2ee3fa96f7c02b514329f00a17c01ddee82b  subgroup basis kernel_13_1_0.json
04c78145f93428bd72a99c6d8aaa21949057b25dfbc66c2cad920a0edcdc1776  --json subgroup rewrite kernel_13_1_0.json x y x^-1 y^-1 x^13 y^13
353c8db4eecf4b7d86953c2dfd27c848dfff7920d2926c8dc7a01c32825f9fc3  --json subgroup index kernel_13_2_1.json
eaf88e03121745409c19114f37648b20c7007949ff5a2dcfad8a3f35526aedbc  subgroup index kernel_13_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_13_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_13_2_1.json
5a262547ccbe0f3ae3eab265cd00b9d47c8d153f7921355f02154078175adbf6  --json subgroup basis kernel_13_2_1.json
c8e78435cb3132c90f2f8e1e0a3f190e5a5b7f7a06319df86612fe1ba90f0ac1  subgroup basis kernel_13_2_1.json
6eca0abd1df3cc18df78a1f3184e1808a1d7caf81a1b8b6ff7250ed17ed9f328  --json subgroup rewrite kernel_13_2_1.json x y x^-1 y^-1 x^13 y^13
353c8db4eecf4b7d86953c2dfd27c848dfff7920d2926c8dc7a01c32825f9fc3  --json subgroup index kernel_13_1_3.json
eaf88e03121745409c19114f37648b20c7007949ff5a2dcfad8a3f35526aedbc  subgroup index kernel_13_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_13_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_13_1_3.json
1dbbae16477ae663892e4e43e65efbbce6a208dde18be97940786dae0b2eef70  --json subgroup basis kernel_13_1_3.json
e976c639531851c721088abd2d69d51bd575a53db62d0c16e5546b716e932f63  subgroup basis kernel_13_1_3.json
e51aa1a47f5ea8443edf559ca5fb109de619aa9ace557f8647e0cf93c291f7a0  --json subgroup rewrite kernel_13_1_3.json x y x^-1 y^-1 x^13 y^13
1af508689b53100bbff52d59ec73e16bed177a897c7658dd62b0a235c2e53739  --json subgroup index kernel_14_1_0.json
1f8c75355189e6c4d2e27a3c4784d361a9fd1963977eefc0571276abbde8256b  subgroup index kernel_14_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_14_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_14_1_0.json
2753a7a88321f3bc02b3d92ea0b09f165cf10a2d9e959bf010915aae67903883  --json subgroup basis kernel_14_1_0.json
95dc848e559b7636d4d6ee8d1a8414342926c644bcf633fe779e914ca3c493b9  subgroup basis kernel_14_1_0.json
d21236b01ba5ee7364ace1b4ed0b36baca7f93bc7e8fd141a6d9fb5f50ed6843  --json subgroup rewrite kernel_14_1_0.json x y x^-1 y^-1 x^14 y^14
1af508689b53100bbff52d59ec73e16bed177a897c7658dd62b0a235c2e53739  --json subgroup index kernel_14_2_1.json
1f8c75355189e6c4d2e27a3c4784d361a9fd1963977eefc0571276abbde8256b  subgroup index kernel_14_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_14_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_14_2_1.json
1b305ffd7351a454a1573c3148341d431dfef9b8a808316c6129682a41878a34  --json subgroup basis kernel_14_2_1.json
6f324bcd816b4d022c46c0bcfe9d62893b5be965e5635bb49f442da73606450c  subgroup basis kernel_14_2_1.json
ffb6b95bafc7213f49cc81d3be408765a92784ce9a18c2a359a787a4b87f97a7  --json subgroup rewrite kernel_14_2_1.json x y x^-1 y^-1 x^14 y^14
1af508689b53100bbff52d59ec73e16bed177a897c7658dd62b0a235c2e53739  --json subgroup index kernel_14_1_3.json
1f8c75355189e6c4d2e27a3c4784d361a9fd1963977eefc0571276abbde8256b  subgroup index kernel_14_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_14_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_14_1_3.json
e8ad1fb30968405cb10ec01f0335d292fe7b474c62c09489b24215482c452585  --json subgroup basis kernel_14_1_3.json
4b989fd3f93a0f07600bad6676da4f85f6c7d243e92212547caedf3359c8788e  subgroup basis kernel_14_1_3.json
edffe64901686807ce93f3e14ba5819bbaa03ddf80457fa3895b7e105f70e8fc  --json subgroup rewrite kernel_14_1_3.json x y x^-1 y^-1 x^14 y^14
e87d93ca2192ea623ff3309a8a76f1afecd553ea77d62bd446b93bf6de207121  --json subgroup index kernel_15_1_0.json
775e81ffadd75642bb6220947cacfc615095a7e7b65f23134e3d334ed4811718  subgroup index kernel_15_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_15_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_15_1_0.json
66bfdcc2e217b15b7e2d97f6356cf6716633207f057abc7a6ed2de2e7061befb  --json subgroup basis kernel_15_1_0.json
bc7bd186c3927c7fe5917163afed0fcb4fd9ad8d6322ad14246b8ebcd1b44b9f  subgroup basis kernel_15_1_0.json
df295197e0fa494d9634a528c993a39182b2e4390e4858cfa3297c0fa7554255  --json subgroup rewrite kernel_15_1_0.json x y x^-1 y^-1 x^15 y^15
e87d93ca2192ea623ff3309a8a76f1afecd553ea77d62bd446b93bf6de207121  --json subgroup index kernel_15_2_1.json
775e81ffadd75642bb6220947cacfc615095a7e7b65f23134e3d334ed4811718  subgroup index kernel_15_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_15_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_15_2_1.json
1b0b5cc18a7fbd79224e8ead03d6a4a4f79b86c881fac1cfeb7ac85c387c3808  --json subgroup basis kernel_15_2_1.json
f8414293b73b5ee7012c14a346c216143ee47693fde1ca2f5cf0e46671133bcd  subgroup basis kernel_15_2_1.json
cd3edd1e1c720f144ce23794156721540dfdaf70489ffa476ea94d6877ac40c6  --json subgroup rewrite kernel_15_2_1.json x y x^-1 y^-1 x^15 y^15
e87d93ca2192ea623ff3309a8a76f1afecd553ea77d62bd446b93bf6de207121  --json subgroup index kernel_15_1_3.json
775e81ffadd75642bb6220947cacfc615095a7e7b65f23134e3d334ed4811718  subgroup index kernel_15_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_15_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_15_1_3.json
bf461169a6db4b26bff030d311459b971b56031106fb3e41cd27078afdd55bda  --json subgroup basis kernel_15_1_3.json
f7e4dd20117deac512080c4f694e79a71e9736c741dfd35983c4cc06d8eb576e  subgroup basis kernel_15_1_3.json
7541a69bf2353ea1cba02bd1a3a6d038a8883311e3bdbe060ec3c1dd3ea37333  --json subgroup rewrite kernel_15_1_3.json x y x^-1 y^-1 x^15 y^15
fdb21d483a15487dbf6b3245ee176e56d939c8c76bbb29861d27e9fad4a01422  --json subgroup index kernel_16_1_0.json
1c906ec65539ce428670096a0695e60134334689e57a06eaaff56084655b74b5  subgroup index kernel_16_1_0.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_16_1_0.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_16_1_0.json
4bcc8e33d3d23d16c55ae09250bfe3834b41f12d35ed170d4be4d95b80fcd140  --json subgroup basis kernel_16_1_0.json
8352c241244ca5b4f7cd908da3a53a9878abb0a15cee042732ec3ac3788bec97  subgroup basis kernel_16_1_0.json
95822405805bcc99c01b1a3030d8075513141d348315f48958fc1a069aa75579  --json subgroup rewrite kernel_16_1_0.json x y x^-1 y^-1 x^16 y^16
fdb21d483a15487dbf6b3245ee176e56d939c8c76bbb29861d27e9fad4a01422  --json subgroup index kernel_16_2_1.json
1c906ec65539ce428670096a0695e60134334689e57a06eaaff56084655b74b5  subgroup index kernel_16_2_1.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_16_2_1.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_16_2_1.json
2093826618a984e1fb8f1707fa50b5673eed696398c14e740bb69a43695d7ff4  --json subgroup basis kernel_16_2_1.json
549442db86f8d28f2304b8adff90359dd76ab5b02557d89495a673e8bfeff417  subgroup basis kernel_16_2_1.json
b08e08c318bb795878d46b34da7563a9e92f2860995bcb2b0d356ef1498b1a3c  --json subgroup rewrite kernel_16_2_1.json x y x^-1 y^-1 x^16 y^16
fdb21d483a15487dbf6b3245ee176e56d939c8c76bbb29861d27e9fad4a01422  --json subgroup index kernel_16_1_3.json
1c906ec65539ce428670096a0695e60134334689e57a06eaaff56084655b74b5  subgroup index kernel_16_1_3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_16_1_3.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal kernel_16_1_3.json
ee0e80560817c083d089c8614f5fb01639057b232394c01f462ca16ae3b41c59  --json subgroup basis kernel_16_1_3.json
8e1a28ad31edcc4ffa97648a547fe31b7229c43756f60b22a5d6248bddd5588e  subgroup basis kernel_16_1_3.json
dd3d0a6664580f569092f1a5eb7a23c863dc4a5665954b1bb808d27b02ecfe79  --json subgroup rewrite kernel_16_1_3.json x y x^-1 y^-1 x^16 y^16
02e08981c709c82ef330c266aa05286db938502e2870e097b35852104545c2a1  --json subgroup index kernel_d2.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_d2.json
209236dc1f9016bc05022b3b26898da2a0ae5439d59589a3a1b44adcb9fd4359  --json subgroup basis kernel_d2.json
4a3ab12d89a7cbbb58dc9511d6245e90a53c75a9c1ae5da313a8b43f1971e3ba  --json subgroup index kernel_d3.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal kernel_d3.json
c41f241d52208961679f41976b579d049e57a83fc3fec9c4722a5b92c81558f4  --json subgroup basis kernel_d3.json
4a3ab12d89a7cbbb58dc9511d6245e90a53c75a9c1ae5da313a8b43f1971e3ba  --json subgroup index paper_index3.json
9f6e7380affb69d3beca38ae3bf2188a70c7aab1fc6198d2e66cfd8887bb1951  --json subgroup normal paper_index3.json
5a0cac8e32816ee0e3d90fd6edca31c0e99dc7fbf7b24c7787fc5194c708eed3  --json subgroup basis paper_index3.json
d838eedc7f986d40a020d457d0f403a477a0e68a9be5efc1f2779da6753beacf  --json witness --d 2 --m 2
d5c4126b55bbb3b975c706302a803e3af482d652debec86e2b232c3e6030c9dc  witness --d 2 --m 2
777e204e53fad968052496ee7874ecd94c7c428f649097680df8c8bd999ae37f  --json witness --d 2 --m 3
38459186e999f39af1592f2550d5d0bc76418ce5163463987d5478f6cade22c9  witness --d 2 --m 3
d24aa60fa8046d3ba1abbe9010b1530d49b87e1f5c33dc31027c268dc4ed1bdc  --json witness --d 2 --m 4
70e2485c0ac6a53a4c070dd284f7b8d8207ac70feafc7956f7ee20f2245308e2  witness --d 2 --m 4
356a483f2f3f3c0642fdff48e1aaa9963b5ebdb2c3378333191ab96d8f654fc0  --json witness --d 2 --m 5
4232140a7c1aa38ce8c857dcb0fb62605681e96aa2d8d0aa93b82c7f57aa90b3  witness --d 2 --m 5
d76214e7cda624d87f5f531dad26065078d5f00b01657117a04f93dff122b6ac  --json witness --d 2 --m 6
57506dfc5a7fb63bba3e2f34cb381141f935132157c2fa9f783394d450388cb7  witness --d 2 --m 6
4d08d5c5ddae5f2d5c1f77d370e3550885fdfc603c6f95f680b25957e7d5f881  --json witness --d 2 --m 7
79922d20dd3b608c635f6d14757e96ba9b932e18e55cfd55dfc12f51d0b58c27  witness --d 2 --m 7
f74b19a9e79387fed1953ccddebfe175d3ca940de089975e166466c5d335a1df  --json witness --d 2 --m 8
74dbdc065b147584b6f43c4fff67034c80b03f97fdd8eed5eba6ddf5fad9af4b  witness --d 2 --m 8
960a633fbdac0b4371e56871078e155f2139f066922cc38e7ff0b87ef799d915  --json witness --d 2 --m 9
a7e167b16eb8edc11f6b1d398939851731cd9eb8c938bde1127273ec8571b750  witness --d 2 --m 9
c792de73a4cd48eb5a9826ec504d5c0d5cbb0b139ec5389f4f3b5244d7027e54  --json witness --d 3 --m 2
c3d44691ad413a98758dced63aa791584e58006c518c9fb16baf24fd00f6b060  witness --d 3 --m 2
99d9a71062a5f4cc291537457bd973c02e469127b0971f2bee82feb9af00d986  --json witness --d 3 --m 3
d6aa5fa1c4f528b1973e08b0b57271a110611a64b7315d8324f61327c8546f0f  witness --d 3 --m 3
c6ff693254769b268fbf5b9bc1f025cca9f8fba413e7e3243e51c5464c943722  --json witness --d 3 --m 4
2ba4b6b0ff2b8089dde5badefd4fdefc852ea83c93fa1ef17642265542d37bf8  witness --d 3 --m 4
fd683dc1f7d00b29c5798ef3c1e2f031957bd8ffe13dd721836194d4fa0eb856  --json witness --d 3 --m 5
86f1c0933da6f1c4015e2a9c1db791f08bf171048b96f2466d04ebaa05f33125  witness --d 3 --m 5
28ac3de62c98b87177e528bb98718daf2b7c96de63adc0ee684206d5ab967ebd  --json witness --d 3 --m 6
f1ce99a42a1c6686fd635bb836f9e90588e502348a8f70d45cde70201a2782e3  witness --d 3 --m 6
dccff625fc7c1b686079154ec9f718fbd7227abbe9031372f736b291fe132a2f  --json witness --d 3 --m 7
13afc2384c8a46f8dc6ef7760c50b9aeb5a192c80ea0ca6dfb087b096b14bc8a  witness --d 3 --m 7
6e89d09175a10247113b78dad280e95f272f7bb3bda38d83bf023475a8102916  --json witness --d 3 --m 8
42febcf17555888c42e013fe81ee2d0ad51107ab6e4a75275dec9ad586686f57  witness --d 3 --m 8
f74a468f728c773516354c354771af4627d65fcd3a314800584f8f701bf70967  --json witness --d 3 --m 9
adcd1400444225e45a789ccb54de324915fafc3c20a57e24947946baec557825  witness --d 3 --m 9
eee94e3197935de35cb81788b4bc14f2a4180407a20fe5079552fe0a988a0a02  --json witness --d 5 --m 2
bf7534f46cb9d1cbef6c4afdfd75131272591c083ee6bc3e08f98e70351ff676  witness --d 5 --m 2
5d095590254ad734f2d9c40ee9eb0307cd3e616ada1785e78a6aec797666b5c7  --json witness --d 5 --m 3
568ca33302b2ee081d2757036c4c5d8eb9c3c4503a977f25a2cd9dc65d4c746e  witness --d 5 --m 3
705ef9ef61ca963106e50451e499dc69024703fb29c7c9f1edf8a6b12c13ba84  --json witness --d 5 --m 4
50054d5b8487f3cb09e02bdb35799872a88a813b52125ddc5eb20dca0d9d6afd  witness --d 5 --m 4
d2704405b69c767de04c7c23f7eb56471a2dd91e983cb9dceb96e28699d8543e  --json witness --d 5 --m 5
547805ae95a7f08145db075351866f95d1660363691a265bb1edb15cc90f9ec6  witness --d 5 --m 5
7e80b71f1c77e71f47513eb1668eb9bbcc7bfb01a199961bd4ae20e2e9ffe9d9  --json witness --d 5 --m 6
d1652c6e0a7ac60e7b7eed64d03673a49d5a04a448533017584f7b626a40c70e  witness --d 5 --m 6
e02e7c11cbd6b96121fb2ac910d59df77d1cc4c1d2a8dc9d972ad58e81533ced  --json witness --d 5 --m 7
45a63d7ec3070fe743e01d34b9f7f40a0816abe91a1b1715e2a86e38efeb9ece  witness --d 5 --m 7
89a9dc53444d86cb18467304aa31d9fa38d6a2060ea54b0e57aa3f552f731755  --json witness --d 5 --m 8
683f92caa3f6daedaee09a5ece3cc4b48c1ff188ca7b4ec3bc9ca3745ffd57ea  witness --d 5 --m 8
4d247624e586ccfa198d09d188a7b898aeb00fa9401f405b5c4ae306090eabb2  --json witness --d 5 --m 9
8813cfd830eb76b5ed414b1f8b252a5018176fe4bac1adc9dec1ac373c760c52  witness --d 5 --m 9
ff5618da4d65ba061cb46d45c26ae2979f41282424b230d8c679a7f4a58dc82f  --json witness --d 7 --m 2
2d02dbc7e424798775f0bfa340c1a9e4720edc775be60b5d7fe49d6d0e8a1bc6  witness --d 7 --m 2
ee12c37430fcec0a98596e4f9fbccedba2482d8379265ca3f47aae70e813acc3  --json witness --d 7 --m 3
1e45839bd3d972c7addafe17651302e66a357802b1c9d269a81d4d83a8dab8e7  witness --d 7 --m 3
480a23eb0b28233bc6e30ee41bf4cfbc025bb0b140dd78308d64886d445a3bea  --json witness --d 7 --m 4
33a0300d6501a516b49e1c00503fc1f08046e3fc4e9aa451a981accd17c56f4b  witness --d 7 --m 4
88d9130a37e8ec857fff2cce19f5f643d366e05e1ec5c5eeb5ec3508179826aa  --json witness --d 7 --m 5
a4b92bea391ab9446939bf6550ec103e25f325eb90bb9bd274133b54d6cef2e7  witness --d 7 --m 5
089e4a57f58f520fd833aff00922b3c5b772828f034f2e34aef6390cd7c7054b  --json witness --d 7 --m 6
8a0f3427368cde1b8b944e12938666a6d5d1f94c6191cc3e3225f4943f86f06f  witness --d 7 --m 6
ed93a0f79a4967f34c588e37ba3760087a976feae4d7135d6b1c59fc8e1853ba  --json witness --d 7 --m 7
67e29ade3a57a503368262d789eb6d210f5a9aeb7f2d51d88ca8eab40bfbc81c  witness --d 7 --m 7
f9667374657056b26460bae46f5125202bb3cc1a5c368b7174df55ce98e0707e  --json witness --d 7 --m 8
5ee77364a34894ff6efa75ffe5aba782f9efdbe8faea17a618ab4d83f47b79fc  witness --d 7 --m 8
13472a4cd9378f38eb9fe15bead90d0125bc15314aa06386c7923a24fea12e2a  --json witness --d 7 --m 9
090b8533c18b453c813c791f0079112a6331221318603590c49837a18600ddf9  witness --d 7 --m 9
ebf7ca63a91e850bad93f2a39da65545fd076646e687fcf5dc29765627414d22  --json witness --d 16 --m 2
110badfcf954f8ce0f8b1fe2004c56b3063c5d2b215488705b0811611c5b7a5c  witness --d 16 --m 2
fd5e089e608ed62d8fd8abefbd05c6a498c31084d87a481d6bed987b3007302f  --json witness --d 16 --m 3
1bb4c741f45b78e61860a288479373c8d2eab067beaab9748d1a076273fc9eeb  witness --d 16 --m 3
3f5f9b9c860447fc6a0135543883243f14547979063d1fa22c6e6f04841d9b67  --json witness --d 16 --m 4
a4b52f296b0b6161407e45ef7c6bd7d80e7c72127d9642b3486edde898c89912  witness --d 16 --m 4
a83d3a0670dd76be5bcdea26a2b96ec8c7e84f1bbe554d7f9f77fa651168cd2e  --json witness --d 16 --m 5
de83d87a0cac0c6e85be7addd88d573ee13d0d3a3fc70e8debb964468eadab0d  witness --d 16 --m 5
11f0f4405fa4115a428b3bd74f8a65d6893b6f147b97ef64a44ff2928bcc4a64  --json witness --d 16 --m 6
3b636a3d372761b0f3f29328eb44164c574c90beab923a07c060990ed52ca934  witness --d 16 --m 6
ee69adf164e330b510dd07258f765b5d0682c310e834c6bd0769e565d697c689  --json witness --d 16 --m 7
9bae410f1f196265cab5e42e1f2a7cf204df646b46f1e35653e0a93604581224  witness --d 16 --m 7
84f1f6b1fea3fc5f302d74a48254a51f6ca8d78f2a04ed9d1a14cf2e153a8240  --json witness --d 16 --m 8
5a87d643be58159b89018718200ba080f9d262c4a9889b9714dc2a7a2e5978a8  witness --d 16 --m 8
e5affa38ef941dc18f39816e462eeb151271cd34ebed1bef492e4728212285c6  --json witness --d 16 --m 9
55a3d15c4af85416dc69faede0530b53e3b04e54d7049c01c715b031e3fdfac8  witness --d 16 --m 9
91be0350b9fcddb1e46180edcdf182e0fe2fa2a17f1dd040df9bd0027cf40ad2  --json witness --d 2 --m 10
47699c99e88e3fb3260174c9081f2f2338fe43ad798492c268fd295d5260be89  --json witness --d 2 --m 11
00acd5ff11f3570868f2c3f1ac718d2ddc4e10dcda50d900d756d62487cffc2b  --json witness --d 2 --m 12
0eb4bb677a40b967ed43436e5aee2cbf6b837f7ebd79dbb367a8d752763e4053  --json witness --d 3 --m 10
e206d5094f385123016a86527d820af5d46e9a9c6d748a8a174cae948a3c93b0  --json witness --d 3 --m 11
d0db485ee325646917b8b8da7065acd4e515dfebe4e2070c6e78ef431231138a  --json witness --d 3 --m 12
66e245a64f58d3b5b5c6c3865e1a0d808fded34f32931c74f0fa56629db10bdb  --json witness --d 5 --m 10
5188bc7a9a032a9f9b33950774e6be1c7c8f5dfe105ad7da133dea376d47ee64  --json witness --d 5 --m 11
afb69ffe839cd37abeee55c59cb1612ff92ecda70a6cd02a1c8f7fb61fec676b  --json witness --d 5 --m 12
839ed27b61507e8c6a9dd9ee72c06c2d46852224c62d45e0fecceccc03c3dee9  --json verify
5eb88ad689d1226e07301eb06062afe6bc14c7e8aa80ca0ad42e7097f60e0c49  verify --d-max 16
236531f093ec1e2274b635e74e4f1090b7c295b9bd040bc8f6d8bbfa801afaf7  --json verify --d-max 24 --n-max 250
0d5e0b9747fd1d5cff4b37b66fff3c3dab279eafa4675a915fc862519e0165f1  verify --d-max 24 --n-max 250
e08ceb69e4471b5fc37b5b2b49f8cdfe4f6d68ea9901fa2a7eea6cd5b831ed30  subgroup rewrite kernel_2_1_0.json omega(0)
c4958c42959e6f09e054fe830fd85aff45518a9967fde37603d72f666b6f582b  subgroup rewrite kernel_2_1_0.json omega(1)
65ba1229fc77dd9267c4238d54bf2b163d2d1daea9de73503fbeca5368f8535e  subgroup rewrite kernel_2_1_0.json omega(2)
6284c10e7144a56c2b0b9c12e3c8a225a9e64ed3ac43bd995d29bb1bf842f605  subgroup rewrite kernel_2_1_0.json omega(3)
7edac612ef9f4687de5e25a364bb28eaea82754e553c09f212ba7e91c11ec3ea  subgroup rewrite kernel_2_1_0.json omega(4)
185787c2575dbc5a7581295397ce61cdec98214b5bcc46c88050404af35883bd  subgroup rewrite kernel_2_1_0.json omega(5)
e51cf74567974b90c52dd38d96f77f60a088472c37029758440d088fd4d0a767  subgroup rewrite kernel_2_1_0.json omega(6)
4202300985efd8b96472f929c6a495fdf123a1b1687954d3e04b79b65eaa7b54  subgroup rewrite kernel_2_1_0.json omega(7)
b7f2667c3e9d7d7824c5053e203e7d49f89e7ce10588e917e6c4262f20d3baf9  subgroup rewrite kernel_2_1_0.json omega(8)
eb3dcf432ba070a72c650670dfa71335725496206fc7b3855350afe7e6e48f92  subgroup rewrite kernel_2_1_0.json omega(9)
c925ae9942bfb18ef4fd8ef44520b300fdc4bc1fc9a5a96e0f627eb7023b5013  subgroup rewrite kernel_2_1_0.json omega(10)
a27dbe9b09405fad556d7966d056a1f502ad9c481d1ab53dd90b5a60ed0e6094  subgroup rewrite kernel_2_1_0.json omega(11)
2dd168b49af8a641364e10c253b9c768543aa97ee543a2639be3d3e545ca8b56  subgroup rewrite kernel_2_1_0.json omega(12)
f404a8938b1a129d5c626068334783bb25ec7dca0f711902ae587445ab53dcf0  subgroup rewrite kernel_2_1_0.json omega(13)
aa7a9d8d1f6b73ff46c57224164051a079191dfe636725f960e6a27dae68b41f  subgroup rewrite kernel_2_1_0.json omega(14)
e08ceb69e4471b5fc37b5b2b49f8cdfe4f6d68ea9901fa2a7eea6cd5b831ed30  subgroup rewrite kernel_3_1_0.json omega(0)
9b78f1119687a9dc9a393af52dc8dfdafaa6827429070f14902f15eed98cbdcb  subgroup rewrite kernel_3_1_0.json omega(1)
daddb027f897c1c5fcadc1586fe0a33d1155263a47cd7c679c98813c5e79a98e  subgroup rewrite kernel_3_1_0.json omega(2)
957f90e14dacbb87d7d8a9efae4afc6e92a42d2dbfbfeaba572ad229183840c7  subgroup rewrite kernel_3_1_0.json omega(3)
d4825121133155558e27529ccb3f42b2d88c365517d995c9c409360974ffd1f2  subgroup rewrite kernel_3_1_0.json omega(4)
ac234939de9394e8b571cd1c2f71859383df9f7f9f1364e0efeadcda0f6efa24  subgroup rewrite kernel_3_1_0.json omega(5)
aa0c7873d1d371e15fb08eb66184b92acd29d9466ee1a2e89063101d50334176  subgroup rewrite kernel_3_1_0.json omega(6)
32018d50f9913beaeecc69fdba0eeede2391613102f1e91d76d000aecb05de13  subgroup rewrite kernel_3_1_0.json omega(7)
081604bec8b083fa2a9fb1ef5c45a82feb0a1dbe7701757a862605fba8ad5dd8  subgroup rewrite kernel_3_1_0.json omega(8)
048420d8513928122f8af890d122a49a369c20352303d2d756c89a091f131a8b  subgroup rewrite kernel_3_1_0.json omega(9)
490fb68b312da14dad4c6ba1f4d6c6ca54de4afbca91a70e649a5f4390653353  subgroup rewrite kernel_3_1_0.json omega(10)
c6f55bfaa9ab31dd86ab2570c60839275bfbd60092a53895ebfe2b6410173bf6  subgroup rewrite kernel_3_1_0.json omega(11)
a82ff517e80bc320aa5e498674bf20bbbd7d672ca2b69a84b6f931deb521e7b1  subgroup rewrite kernel_3_1_0.json omega(12)
9dc53c85a71956a311528c10c03eae4a34d6581342ba64fc5bdad6fcf2c5a1d0  subgroup rewrite kernel_3_1_0.json omega(13)
630f2ac5e4575456590babb3c64640da379ea2296e2094b3938e29f6282b631a  subgroup rewrite kernel_3_1_0.json omega(14)
e08ceb69e4471b5fc37b5b2b49f8cdfe4f6d68ea9901fa2a7eea6cd5b831ed30  subgroup rewrite kernel_5_1_0.json omega(0)
9b78f1119687a9dc9a393af52dc8dfdafaa6827429070f14902f15eed98cbdcb  subgroup rewrite kernel_5_1_0.json omega(1)
1848f34bda46bd40dc953fdf40c427a38bc4ce5030c94aa0f0c594efd5d9c37c  subgroup rewrite kernel_5_1_0.json omega(2)
cc58a13e594a994b6217f7b096a9f7664874d35b39997aa7579743929a6460b9  subgroup rewrite kernel_5_1_0.json omega(3)
b41795f7e984764fa2c4170204534a132e7d1e70b215c8346af5c57ac702df13  subgroup rewrite kernel_5_1_0.json omega(4)
c67249fc19216d470032d4dd1528aba13f14b871816dce4d626fa115481aef20  subgroup rewrite kernel_5_1_0.json omega(5)
aebb51db2261bd52842239547d6be04dc70d43aa7cad35114851761633a939ec  subgroup rewrite kernel_5_1_0.json omega(6)
0bf2a8f708e5c2b1e0d51bdaf4e75c63ee8b1a224298f0fdfb6e8dfdfb5d1b75  subgroup rewrite kernel_5_1_0.json omega(7)
06c323c441f75ba61f6765a5bb6b858c4406693c4965d678cfd2581a61bf07cc  subgroup rewrite kernel_5_1_0.json omega(8)
a32c200fad81712a850bf3790195161eb0bac6fb238237b55c3dc54be5f612a5  subgroup rewrite kernel_5_1_0.json omega(9)
97f9ec32fdc236e2314604da98e3c30af860fa928cbf19c5671848f652eef271  subgroup rewrite kernel_5_1_0.json omega(10)
847af124c2a89b2022695deb810598480053bd204b5c14a924263278f6a6846c  subgroup rewrite kernel_5_1_0.json omega(11)
a362ed29cab79e016d5eb0c11d594b7e6226f2503d5589940f3c47ffcf926806  subgroup rewrite kernel_5_1_0.json omega(12)
b5adaa9a69fcaf5acb7182814ba853aaa7af2b311fa9d430df0fc2ca9c0d5278  subgroup rewrite kernel_5_1_0.json omega(13)
50dd34e3f7e9d1600877cdafe315d218bdec4a9f1465c3350c680b02f33a5b3c  subgroup rewrite kernel_5_1_0.json omega(14)
e08ceb69e4471b5fc37b5b2b49f8cdfe4f6d68ea9901fa2a7eea6cd5b831ed30  subgroup rewrite kernel_16_1_0.json omega(0)
9b78f1119687a9dc9a393af52dc8dfdafaa6827429070f14902f15eed98cbdcb  subgroup rewrite kernel_16_1_0.json omega(1)
1848f34bda46bd40dc953fdf40c427a38bc4ce5030c94aa0f0c594efd5d9c37c  subgroup rewrite kernel_16_1_0.json omega(2)
cc58a13e594a994b6217f7b096a9f7664874d35b39997aa7579743929a6460b9  subgroup rewrite kernel_16_1_0.json omega(3)
2ab58a1f2154440a36bb43187d1e22fd0e449e5ebf8f38f3e1b518e6cac37a62  subgroup rewrite kernel_16_1_0.json omega(4)
382b7aefaaec5ba4f2c178bce4062657a1c9686607d4811f99e254edafd24fcf  subgroup rewrite kernel_16_1_0.json omega(5)
cdf9e9fd5dd2ec3f2cf990e2dc4a3983ede43c1f074e8fb3895b81d246e6cbee  subgroup rewrite kernel_16_1_0.json omega(6)
896614fa87e7c2295563aef0cf5f2c8eda6ac1c2acec7505127e9a65df97912b  subgroup rewrite kernel_16_1_0.json omega(7)
d84557ba474596e1e520f5876b100b4f03a22a786accfa3e002eb6e8c60c77a1  subgroup rewrite kernel_16_1_0.json omega(8)
529fcb813d541662a0d6a2933c9d0e78e169cccf446d755ca936f6d4afb8b813  subgroup rewrite kernel_16_1_0.json omega(9)
7b6b5dc6312c52a07511f6e26cdb58e7d58542439c4e09e85e2474de348e51a8  subgroup rewrite kernel_16_1_0.json omega(10)
ef77a8d08870044d1667e4079bb65d9bd198cb5a2f8315b7ed9acf7bf7d3a2a5  subgroup rewrite kernel_16_1_0.json omega(11)
120b609f9c2a040d36084bca7396746805ee1f990d6e5888c9c26c5725d5f4d0  subgroup rewrite kernel_16_1_0.json omega(12)
f6d8a4d91661abdae237fb5af73dd436accee1517a117169f2ca904b5e429811  subgroup rewrite kernel_16_1_0.json omega(13)
4ca922ee1b6cfcf68731209921d698a98f06e0849e74a42f1c5225832c6ef85d  subgroup rewrite kernel_16_1_0.json omega(14)
8a4f4e2a0c31005d91193d267641c390a59e3fb817865602730d0f2d3f0d115e  --json subgroup index gens_a.json
9a46e81ac0d1d664d01fff130300c767081df8ed05f69d25ce83b949b5186729  subgroup index gens_a.json
9f6e7380affb69d3beca38ae3bf2188a70c7aab1fc6198d2e66cfd8887bb1951  --json subgroup normal gens_a.json
a9c8ba4ff0dc56ac5191eb78c7b3ded913d78bdec36c9528085643a4463fb90d  subgroup normal gens_a.json
112a9e7c996c280964c7d897cb32f4260671288895556df28d3b59319a38ae4e  --json subgroup basis gens_a.json
1fb0b19dd644f4aa011478d91bbc6c3a56c822d66b6734b910a1ab65baf63e2f  subgroup basis gens_a.json
bd51f5e6c1900608857f473609e6e42a37c42e2c62655707b3077cc307fc5014  --json subgroup rewrite gens_a.json a^3
1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2  --json subgroup rewrite gens_a.json a b
d19ec38d4d4d0cdeaa9f07b928c16ffb0e1a66b41506364a731d17bc97bc16e6  subgroup rewrite gens_a.json a^3
8a4f4e2a0c31005d91193d267641c390a59e3fb817865602730d0f2d3f0d115e  --json subgroup index gens_a_bab.json
9a46e81ac0d1d664d01fff130300c767081df8ed05f69d25ce83b949b5186729  subgroup index gens_a_bab.json
9f6e7380affb69d3beca38ae3bf2188a70c7aab1fc6198d2e66cfd8887bb1951  --json subgroup normal gens_a_bab.json
a9c8ba4ff0dc56ac5191eb78c7b3ded913d78bdec36c9528085643a4463fb90d  subgroup normal gens_a_bab.json
8a20c9652ef582b24327aaa4f818c96e2ab7712c9b11b9eaf488a5c484cecf07  --json subgroup basis gens_a_bab.json
72a3ad6f03b82c166bf83b253653e86952dd9c5612cdf157b894ee5e3d3ff343  subgroup basis gens_a_bab.json
ff063d4177147f9cbd56c3b91b639cbf135e033e317cb16ab417a8d6ce101e68  --json subgroup rewrite gens_a_bab.json a b a^2 b^-1
1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2  --json subgroup rewrite gens_a_bab.json b
786cf49c43f5e75d9e2fcc186c30ca9df1509b117ad0e989b26b6ceb4c6d2043  subgroup rewrite gens_a_bab.json a b a^2 b^-1
8a4f4e2a0c31005d91193d267641c390a59e3fb817865602730d0f2d3f0d115e  --json subgroup index gens_trivial.json
9a46e81ac0d1d664d01fff130300c767081df8ed05f69d25ce83b949b5186729  subgroup index gens_trivial.json
dc91d5735abef40a435b0babcecfa8d0120a9c138f9a487fc11bb3419f48d013  --json subgroup normal gens_trivial.json
d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c  subgroup normal gens_trivial.json
7bac0eed58a0fbb158e714176fec15eafa63c50aa120fede710d1d58a3a15259  --json subgroup basis gens_trivial.json
74d01a0c051c963d9a9b8ab9dbeab1723f0ad8534ea9fa6a942f358d7fa011b4  subgroup basis gens_trivial.json
73c96da1620d226707f7149be3fe18f9c408fd98c3f4a9cfba9b30c7374d0861  --json subgroup rewrite gens_trivial.json a a^-1
1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2  --json subgroup rewrite gens_trivial.json a
74d01a0c051c963d9a9b8ab9dbeab1723f0ad8534ea9fa6a942f358d7fa011b4  subgroup rewrite gens_trivial.json a a^-1
""".strip().splitlines())}
