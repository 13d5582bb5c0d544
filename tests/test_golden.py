"""Golden outputs: the exact stdout of fixed CLI invocations and of the demos.

Each case is recorded as the sha256 of its exit code, a newline and its
stdout, so any changed byte or exit code fails it.  CLI cases run in-process
through :func:`ehrtensor.cli.main`; demos run as scripts.  To print the table
for the current code, run ``PYTHONPATH=src python tests/test_golden.py``.
The sorted ``ehrtensor.__all__`` is pinned too, so public names change only
on purpose.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehrtensor
from ehrtensor import ehrhart
from ehrtensor.cli import main

ROOT = Path(__file__).resolve().parent.parent

SEGMENT = '{"vertices": [[-1],[2]]}'
TRIANGLE = '{"vertices": [[0,1],[-1,-7],[1,-4]]}'
SQUARE = '{"vertices": [[-1,-1],[1,-1],[-1,1],[1,1]]}'
SKEW_QUAD = '{"vertices": [[0,0],[4,1],[3,4],[-1,2]]}'
# four collinear lex-first points: the triangulation starts with a chain and fan
CHAIN_TRIANGLE = '{"vertices": [[0,0],[0,3],[2,0]]}'
# the vertices of random_lattice_polytope(2, 8, 8, 23), a pick-2d-sized polygon
PICK_POLYGON = '{"vertices": [[-8,-1],[-8,1],[0,6],[1,-6],[6,-8],[8,3]]}'
POLY3 = '{"vertices": [[0,0,0],[2,0,0],[0,1,0],[0,0,1],[1,1,1]]}'
FINDING = ('{"vertices": [[-2,0,-2,-2],[-2,0,0,0],[-2,0,1,0],[-1,0,0,2],'
           '[0,0,-1,-1],[0,1,-1,-2],[0,1,1,1],[1,2,0,-1]]}')
# the vertices of random_lattice_polytope(5, 1, 8, 1)
POLY5 = ('{"vertices": [[-1,0,1,1,-1],[-1,1,-1,0,0],[-1,1,1,0,-1],[0,0,1,-1,0],'
         '[0,1,0,1,0],[0,1,1,-1,0],[1,-1,0,-1,1],[1,0,1,1,1]]}')
# stretched along axis 0, so their lattice scans run in a non-identity axis order
STRETCHED3 = '{"vertices": [[0,0,0],[6,0,0],[0,2,0],[0,0,1],[5,1,1]]}'
STRETCHED4 = ('{"vertices": [[0,0,0,0],[5,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1],'
              '[4,1,1,1]]}')
HALF1 = '{"vertices": [[-1],[2]], "removed": [0]}'
HALF2 = '{"vertices": [[2,-2],[3,-2],[2,-1]], "removed": [0]}'
HALF3 = '{"vertices": [[0,0,0],[2,0,0],[0,3,0],[1,1,2]], "removed": [0,2]}'
HALF4 = ('{"vertices": [[0,0,0,0],[2,0,0,1],[0,3,0,0],[1,1,2,0],[0,1,1,3]], '
         '"removed": [1,3]}')
HALF5 = ('{"vertices": [[0,0,0,0,0],[2,0,0,0,1],[0,2,0,1,0],[0,0,2,0,0],'
         '[1,0,1,2,0],[0,1,0,0,2]], "removed": [0,2,4]}')
# the seed-1 halfopen-d4 bench simplex with the largest box: 720 points
HALF4_LARGE = ('{"vertices": [[-3,3,-3,-3],[-3,0,3,3],[0,1,1,2],[3,0,3,-3],[3,-3,-1,-3]], '
               '"removed": [3]}')


def _cli_cases() -> dict[str, list[str]]:
    cases = {}
    for name, poly in [("d1", SEGMENT), ("d2", TRIANGLE), ("d3", POLY3), ("d4_finding", FINDING),
                       ("d5", POLY5)]:
        cases[f"verify_{name}"] = ["verify", poly]
        cases[f"verify_json_{name}"] = ["verify", poly, "--json"]
    for r in range(4):
        for command in ("hvec", "ehrhart", "moments"):
            cases[f"{command}_d2_r{r}"] = [command, TRIANGLE, "--r", str(r)]
            cases[f"{command}_d2_table_r{r}"] = [command, TRIANGLE, "--r", str(r), "--table"]
            cases[f"{command}_d3_r{r}"] = [command, POLY3, "--r", str(r)]
        for command in ("hvec", "ehrhart"):
            cases[f"{command}_d4_finding_r{r}"] = [command, FINDING, "--r", str(r)]
            cases[f"{command}_d5_r{r}"] = [command, POLY5, "--r", str(r)]
        cases[f"moments_d3_n2_r{r}"] = ["moments", POLY3, "--r", str(r), "--n", "2"]
        for name, simplex in [("d1", HALF1), ("d2", HALF2), ("d3", HALF3), ("d4", HALF4),
                              ("d5", HALF5)]:
            cases[f"halfopen_{name}_r{r}"] = ["halfopen", simplex, "--r", str(r)]
            cases[f"halfopen_{name}_table_r{r}"] = ["halfopen", simplex, "--r", str(r), "--table"]
    for name, simplex, r in [("d4_large", HALF4_LARGE, 2), ("d4", HALF4, 4)]:
        cases[f"halfopen_{name}_r{r}"] = ["halfopen", simplex, "--r", str(r)]
        cases[f"halfopen_{name}_table_r{r}"] = ["halfopen", simplex, "--r", str(r), "--table"]
    # above rank 3 both Newton recurrences run past the ranks that verify reads:
    # the boundary pass behind hvec from d = 4 on, and the half-open vertex parts
    for name, poly, r in [("d4_finding", FINDING, 4), ("d4_finding", FINDING, 5), ("d5", POLY5, 4)]:
        cases[f"hvec_{name}_r{r}"] = ["hvec", poly, "--r", str(r)]
    for name, simplex, r in [("d5", HALF5, 4), ("d5", HALF5, 5), ("d4_large", HALF4_LARGE, 4)]:
        cases[f"halfopen_{name}_r{r}"] = ["halfopen", simplex, "--r", str(r)]
    for name, poly in [("d3_stretched", STRETCHED3), ("d4_stretched", STRETCHED4)]:
        cases[f"moments_{name}_n3_r2"] = ["moments", poly, "--r", "2", "--n", "3"]
        cases[f"hvec_{name}_r2"] = ["hvec", poly, "--r", "2"]
        cases[f"verify_{name}"] = ["verify", poly]
    cases["verify_json_d4_stretched"] = ["verify", STRETCHED4, "--json"]
    cases.update({
        "pick_triangulate": ["pick", SKEW_QUAD, "--triangulate"],
        "pick_triangulate_chain": ["pick", CHAIN_TRIANGLE, "--triangulate"],
        "pick_triangulate_seeded": ["pick", PICK_POLYGON, "--triangulate"],
        "pick_table": ["pick", TRIANGLE, "--table"],
        "psd_d2": ["psd", TRIANGLE],
        "psd_d2_table": ["psd", SKEW_QUAD, "--table"],
        "psd_d4_finding": ["psd", FINDING],
        "reflexive_square": ["reflexive", SQUARE],
        "reflexive_triangle": ["reflexive", TRIANGLE],
        "scan_d3_psd_20": ["scan", "--dim", "3", "--trials", "20", "--bound", "3",
                           "--seed", "42", "--which", "psd"],
        "scan_d4_hibi_96": ["scan", "--dim", "4", "--trials", "96", "--bound", "2",
                            "--seed", "42", "--which", "hibi"],
        "scan_d4_psd_20": ["scan", "--dim", "4", "--trials", "20", "--bound", "2",
                           "--seed", "42", "--which", "psd"],
        "hvec_negative_rank": ["hvec", TRIANGLE, "--r", "-1"],
        "moments_degenerate": ["moments", '{"vertices": [[0,0],[1,1],[2,2]]}'],
    })
    return cases


CLI_CASES = _cli_cases()
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def run_cli_case(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CLI_CASES[name])
    return _digest(code, out.getvalue())


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    return _digest(proc.returncode, proc.stdout)


GOLDEN = {
    "ehrhart_d2_r0": "cd00c69d79582e95e43acf92b5ae8c8e080e2b7d11cf2ae2081912c05109682c",
    "ehrhart_d2_r1": "39a2c2329951a10ddf3730587b826a434a97fa7b1d336afff81c4c8630509b34",
    "ehrhart_d2_r2": "fe09fee948fe5c034f34fd7875061ec19be07912405ec8daa3c91f6c3a60ed25",
    "ehrhart_d2_r3": "2cb6b672c90c0c021761f76854a72b3e8d4c641fe0cf8b31f8a0550b40447e44",
    "ehrhart_d2_table_r0": "039eb2edac0df8357a6c47b43c68ff04df60303d649650d17e775ea52a9ef465",
    "ehrhart_d2_table_r1": "acaec16ec561f5c0aa63ca21f09cc61c659baa082334eedc309add171275391c",
    "ehrhart_d2_table_r2": "141b46be44b863573d79fc04ec6e49eec109cf4f309b545b669b6b633d846113",
    "ehrhart_d2_table_r3": "ecb9d40dd094e83502cd87ba940597bee3346d1c7558c45f68cb8ede6a2ce6c6",
    "ehrhart_d3_r0": "7484bf6209e237a95d36b565bed30b75e181e303ccb8861f9e1d1ae6e968158d",
    "ehrhart_d3_r1": "4638345a144c35eb4869da10c9545b01149c0c80fde672b9b3f618c8bc083bbf",
    "ehrhart_d3_r2": "72e1ee42359a464ef25d82afb7dc918ad6df0cb12f41e889b00574df50ebba7b",
    "ehrhart_d3_r3": "abe83570c1a256429856ba51a3a662c0e5685a0bc3d57f4881ca58a2a4241342",
    "ehrhart_d4_finding_r0": "633421a9ae5185e900cdc115380dcbf3f8c7ad1858d8ad23ad156b3b3b6f6f74",
    "ehrhart_d4_finding_r1": "57c052bc8c9af58ae231688fbd672b17174d4c1f86b33f56b10b095c3b0c3429",
    "ehrhart_d4_finding_r2": "e408cf10bb61f718191a0a1f2e5141e4f0048325277ba331bcb6473eceae7fe4",
    "ehrhart_d4_finding_r3": "48d42ce77a606772d4185d6d7f87be5369d3afd845da6354ac7ac6c801c3917b",
    "ehrhart_d5_r0": "690c7d625eeffac719e7e89cdef5224f559d7dfeb612b260d38104ffb348a04c",
    "ehrhart_d5_r1": "9e280bdd774f002c61d8ab014b635ca634704b214e977099f14c3a4897a5eabc",
    "ehrhart_d5_r2": "bf83e38fa80bf2b374d32c6951f23766b65bd10cffbc2515eb6dec1935fc3090",
    "ehrhart_d5_r3": "1c18f6ae8a7de1719337be1599a116f307cae382f9879f0ae5707acd37f8af0a",
    "halfopen_d1_r0": "9659027b2d8d76dbe97552ca13a59507475e222ce42d45230859c575fe9e37a5",
    "halfopen_d1_r1": "818e55db2eaa105ee7775995b620291e6316bffe90862e56f79e95c0b1a0406f",
    "halfopen_d1_r2": "94e0cb63b78a0da14637f483ad95b0b716b1bf5fb60446f89a7db0c35854e2b0",
    "halfopen_d1_r3": "f0fab7d29d4d7d2b5269e799cf1b90a0851bd7454183bd3785dd2fe821a93ca1",
    "halfopen_d1_table_r0": "2b397a330a90b547d9258bc9217336cb739209d0dab176515069cc44992b639d",
    "halfopen_d1_table_r1": "83ee75eafb3a4692712df0e160fa48b45f4e27ada6758c015de1e3ccd9c003b5",
    "halfopen_d1_table_r2": "8a577014ddd8a548b5703f9e473dd921ed39172a8ea9a42d7b64d8721d984d3a",
    "halfopen_d1_table_r3": "f9803f8d387b9ae3c46cf4bbfd9bd119d54a89b301a01c688689d10a43fd9a67",
    "halfopen_d2_r0": "856cddc9ad54487c48c961bb2bb018692d8030168beafdd9c45e6d6ae4c1792d",
    "halfopen_d2_r1": "e41818d7ad3791d6a360bc7ed6c5bda8552da39ccfe2a116fb33aeb4d1828806",
    "halfopen_d2_r2": "e2c7745f22076bc3d7d0e19f89f5e67ad78f3eb3468309655e0f866287b89015",
    "halfopen_d2_r3": "ae6ce02e215361ce4986785c4e22c299d6d7cf03b017294a7c8a27945db5bf0d",
    "halfopen_d2_table_r0": "28a5d218ee9de9fc87ca133a1515f784b2d4a052c41172257e8904e257e79797",
    "halfopen_d2_table_r1": "ff6e12c52dde41f3df0a099cbb4d3348d3e1d7a0ad07004edf6b4d5ff4070e9a",
    "halfopen_d2_table_r2": "12e21d734ac583481ef36825863f19cca6aa2bb366e747c076b5b7b361203eb7",
    "halfopen_d2_table_r3": "0b27d9770bf21fe29fa8d4aa2629c4d49b477d386d443a8f5d2317ef20595f57",
    "halfopen_d3_r0": "0b44b411f660367bc2648255febd6455977bb95c3523c4d0e0a4699b4cdb3f91",
    "halfopen_d3_r1": "becb79ee44c1b998303addda6b68e097f512516ad144b7fdb513253f9659483a",
    "halfopen_d3_r2": "63a332309dda16f288b462640dd6cc20def45a56474ddd4e87b8ab9226d2f6b4",
    "halfopen_d3_r3": "609d3c7c5a78d3c39e73abd0628c7fa2c9b1df850f1b988ac1c9c56f0ebe4327",
    "halfopen_d3_table_r0": "6727189f8af0e48f281c01372cf97515948944d0f94df3f1abeea99392552a3d",
    "halfopen_d3_table_r1": "c281396b770ef5aa588a88f0e075521f84272c1524c557c5da5101fa114b5410",
    "halfopen_d3_table_r2": "9328c2a050dedb5d31a61445722807ff7f79c82642d42b3bb17ec37f3980b247",
    "halfopen_d3_table_r3": "9c7fa1b6259523e2c97901b45fb78964488273c68cc53789320f86d0bfc157a2",
    "halfopen_d4_large_r2": "423acf3daea05109cfc6deb60bda4a2e9f33eafecb9aaa0f4ca18e06eb21c5cd",
    "halfopen_d4_large_r4": "c2799498a9777e007796c0b132615681b7d02a0bdfc5433514aaac12164edb12",
    "halfopen_d4_large_table_r2": "593d6cf8d01a9c9ece400c484355a6e5b60caa929222332c921e6d8268c5c75c",
    "halfopen_d4_r0": "4fac9cb99ac15083e51e1012492abd9b9a6fe36b4680756ddec46d32f573c3fc",
    "halfopen_d4_r1": "3bf8a7ece0b4e84c5822027f0fa075ff738ff553a3f27d9b0a53e32d50459016",
    "halfopen_d4_r2": "61b9ff58b12df1ff267ac2cda67f602709fa55c438fe76466ada979f4c9b8ecf",
    "halfopen_d4_r3": "5e7aaa2f5c7af77eb7a467aeb2a482cac5517c34035f0d91420923e730440756",
    "halfopen_d4_r4": "5100d81792af201372d74327752bdbf75236d593986a89be9743db5f65b3ae4c",
    "halfopen_d4_table_r0": "dd30a0ca07dc83f9867876ddd677b4b394ccf054132da17d8e91c07ae288b9d9",
    "halfopen_d4_table_r1": "6661c36d14da7b3c1e827ff2b907d37f198c59c9ce5e07c7d093a90b34e7d02f",
    "halfopen_d4_table_r2": "855a07c34e2a0dfcc9d0e98b0a82d6bcdeade36c6c4aba9d60393729dfd4c343",
    "halfopen_d4_table_r3": "ef28e4decc03281d8f961f19f63676015e8182b380ce2614680cde435bec61a7",
    "halfopen_d4_table_r4": "6d99457bdc438695112a1be5d3261acc0ece405261254f31a2277bf6b91323ed",
    "halfopen_d5_r0": "b0832a74f5372eba19410d9335cab647dbec2a1d1d0e3ef7eefa6c876336dd98",
    "halfopen_d5_r1": "50021a8b6a98ad991e7a34ff5216c649c11b0b602efde91a6abcd47f04443e0c",
    "halfopen_d5_r2": "631527b601d270368cd88eff4f7b1828451e9f8bc1fc20814dfa839504fdfab9",
    "halfopen_d5_r3": "fb3348d01770ee6a8669134ad142b823a7a494ebcab3235ac9741dfc0659be9d",
    "halfopen_d5_r4": "48e18961f96aaa6e2998f456ede7c4df5a32e6fa48dc5efe00d278fb64757e63",
    "halfopen_d5_r5": "372ad882941ef1d9610d6a4503354a1e96bf674bd36fd946a0aabc2a1574ce16",
    "halfopen_d5_table_r0": "1a5f4c586fda06aeb05b2ae2f28bb3e712536c53f13bfe95fbaf6352ee315c91",
    "halfopen_d5_table_r1": "411df378c33c5146d3a043139fd4a5e3ff7582eb662191ee6492fb64c33a2bfa",
    "halfopen_d5_table_r2": "87159f6fd508c89c396e059c1d458327a6d33d3bb0e5eaad3798eb3a025bc8ef",
    "halfopen_d5_table_r3": "33111a0e3953c0f6a6e59c8285d998b552b4c36f8c65143efd505cdad6eea0c2",
    "hvec_d2_r0": "431c1a348e01a1bc123912baa62ffd48840ada440b1a2734236c2cf37224b841",
    "hvec_d2_r1": "8e0840b84480981708e99e13581c01802611193ae01a944f419162fcf92cfef8",
    "hvec_d2_r2": "1bd3ceca243c32e344a53665498efbf3849c85b20d69bf32b8978fc6a077681c",
    "hvec_d2_r3": "26e9726a4166e22775de640387fee3292873f7fe4538683eb51b44031a75b27c",
    "hvec_d2_table_r0": "dd103ea8ed6e56c6f888390de612bfdf7950983ac3d788fd4f75d8a0e6b96d9d",
    "hvec_d2_table_r1": "4ac0195fb2f9abca5ca21b83c9861590327c40e95b929ddc25b91cbc2266965e",
    "hvec_d2_table_r2": "9a1f8b29df8652dfa896479e3b3855db03c08291c75e4f1a7a27073fd0fb6a98",
    "hvec_d2_table_r3": "fbb825001f1779a15eeedfc5f2dedaac3c459ea858ff391b9e2d9029274b2c8c",
    "hvec_d3_r0": "86ac0fa3b535ecafd3d93e192c822eb2b4fd5398fb7082b9b197b065c9603f93",
    "hvec_d3_r1": "e5f5603b8ff7c500adc86078bd8642f9c85fa163b59c3e33077ba9de90556a2d",
    "hvec_d3_r2": "ce21eefb7352c7ec224913908a5a3cf2e5b808a7b273bf0ee048c85e7f243b33",
    "hvec_d3_r3": "d9d79748bbce4f6a3e0a8c9dbb11f0597dd1c62b7bb191aecb006836efbebabe",
    "hvec_d3_stretched_r2": "853f9b0f07232a378139921b8f0ee254c7173852fc916e5da847eddf5fa2b2ef",
    "hvec_d4_finding_r0": "2cb50ee30a0d27023a13b5bd5e71a23484cd0c290b2c629e32d4c47168aa071c",
    "hvec_d4_finding_r1": "13b40ad859636cd9a2d39908edfee63188dab592852776bef141481fbb070360",
    "hvec_d4_finding_r2": "09e876953255ce04519b3c62f9660d1717f68cd9a359e4d0d70dc244f35e9cae",
    "hvec_d4_finding_r3": "a0bfdf50753459034d1a40b17e851fd75512a1ed7b5bd4a8c753299a9eb11eff",
    "hvec_d4_finding_r4": "70424a113a8e020e0aa7db4da66d3e0d6222afcd885f1ccfe6dab6ab78cc4e41",
    "hvec_d4_finding_r5": "05a335b5ba279da0f8db7e08ed923625675f34d97ba6c3e57696990e7dff7c19",
    "hvec_d4_stretched_r2": "559d0e747aaf1cee818c4464a0d6d15133d37652b3c44fb3b8e0206a8b4f0db6",
    "hvec_d5_r0": "0c76bdc7b0eba8397cae4c68a6631879b9f85e43a3070acad60abd5c5e3c5605",
    "hvec_d5_r1": "9cb2071dfa124c4023b2bb8386dcb89bc5a8c2ca8874c572dda9ec014534c682",
    "hvec_d5_r2": "d664d4ee20dd043c71c9bc66681cf48b08a4f23889cc720b60275616e1fcf70c",
    "hvec_d5_r3": "b176ea988fe6b191ce8f98975250f6bb27fe0dbad98c984bb6758c54973b5f3e",
    "hvec_d5_r4": "4a368bb8dfa7b96f7febaff3e64f94f43304a40c321bf72c0e4af7b342a7d47a",
    "hvec_negative_rank": "3d49c74b317c79dbc8d939bc2a789b614bb8560f1682c3d40dc0069410131564",
    "moments_d2_r0": "1cd39716c656da02f53d7a81f22952e7176de49d1c40549e06e5622c60a15c8d",
    "moments_d2_r1": "925569c7039668c7c249bfcebc0c6a3103b1ce57fb220b6f7429d386ec3367d6",
    "moments_d2_r2": "020f3d78a8e5c4ad47081ad0f2a9905c41ad1e1b876269018cead837ddf1791d",
    "moments_d2_r3": "01f438e1298a40d6d581648ef548db2b1f354c6a3c338ee0da1ddc074f9e9c6e",
    "moments_d2_table_r0": "6bd14f9ae26b4abaddce1e078009c1f49383779e615b4143c81373f113d5afe0",
    "moments_d2_table_r1": "98772287243de3cf84555e67aaea85ffbb2cb4322f39d6c19febc5fbed486020",
    "moments_d2_table_r2": "768f4e99608094a2eb42d22271e7cc8627227b95db64831b97280cf9ff022e88",
    "moments_d2_table_r3": "290959f509557a3d3bf71655782446f8281845b27f9008eddd445f6bc652e52a",
    "moments_d3_n2_r0": "f4dbf11174dc4fd5f3c9e709ff6a3df79abdfa7a7b73cb13155d8f73d61be09e",
    "moments_d3_n2_r1": "605e67f1bfc20e9d72448b27fc349705e265186e391c8049969a78bcfd49c597",
    "moments_d3_n2_r2": "59d6489f5ab52f05d334f3eed160b4d8fda92ef6b05b49a7ab6e0544f8aff072",
    "moments_d3_n2_r3": "8f32b0f3d7dbc7407b15442f832d6aea136e99bf5fb5c3e9dad50b9b65623d72",
    "moments_d3_r0": "991c1e5fc1d57fe7c3f9eb152249cab8cf24e27e2bc22a208faef1fd0e19e093",
    "moments_d3_r1": "b05c24d263fbd1d03836b9399f871a8d7714a83536ea1b5f9c2f078422a5ea3c",
    "moments_d3_r2": "bccd8fec2696fd34c50b614745b5ae1d64d61f868f974def952218593cfb0e19",
    "moments_d3_r3": "c9e170e3ebbb3e60a2545f99004429fe15838c6bbde81ecda5c25132d0c27222",
    "moments_d3_stretched_n3_r2": "5462ff32e0f547b60db6fc392e8dbe1df9e3038f15d0af348f10ab9d9a976bdc",
    "moments_d4_stretched_n3_r2": "f054f52b45c0790d0367884919e0f5d4317933a1ff30d4316a886b04be72692e",
    "moments_degenerate": "f1d04a399e64880cabc9de90f5bbea6cb0feba989b43d82964d2cbe1ed78d7d1",
    "pick_table": "5ba31ee2ce4ec340341eb20695161216dcce1ed4064381acaf7b3a1667871d68",
    "pick_triangulate": "2e833edc13719a6f003afba4f591f29bf577acc60a223d8eb5a43f749466bca6",
    "pick_triangulate_chain": "796fd43bebe16358d2d3fd83e7337477fbeaf6fa1549cc05177f8e10c17b7a1c",
    "pick_triangulate_seeded": "184139564afced7bbbf8540177b32d72e8e7fb4d5d9de16d7748d43ec377b566",
    "psd_d2": "a9dbc5b7e395e83d6ffd606ebf155a7762d627719e0d3a26fe7efc61678bdaf1",
    "psd_d2_table": "97486fb18555a8760215bb7a2e4c45c1b9f20bd836a508dceb084ab643b73ba5",
    "psd_d4_finding": "bbbe6026450f9a103878a5b3cc51d2c8a75cea2767f37af48e7585b4b02ab38c",
    "reflexive_square": "dde368f0c3dee6d308b7e30f2ca08342187aaa5493e46062c17839336776952b",
    "reflexive_triangle": "550400bb3f33a4d4b40a4da1d9dd1c37a305962ed5f4eecd213ab8432a8a275d",
    "scan_d3_psd_20": "693d20a79ea2ccfdaab6703eb5fab9cb4eabbe0eade4d03120782190a0370c14",
    "scan_d4_hibi_96": "ffb2cd895b58cbf12e1d681eb5f14576162602d38f4278ef477c5bdc4c7c9740",
    "scan_d4_psd_20": "04c92b2a9a132081ef5c1cd334205dbd9c2fd20f28688fab386faccec4ec4f2d",
    "verify_d1": "4c344e17473ee1526cb7bdbe1fe78ff753a4b6e3fdd07701499f6e2bacb80a20",
    "verify_d2": "77ad8f2d37ee529dcbbbc9e75d6c628066720d093c037970a72fac8f0e06ca03",
    "verify_d3": "4c344e17473ee1526cb7bdbe1fe78ff753a4b6e3fdd07701499f6e2bacb80a20",
    "verify_d3_stretched": "4c344e17473ee1526cb7bdbe1fe78ff753a4b6e3fdd07701499f6e2bacb80a20",
    "verify_d4_finding": "6118e4d7d704177fcd5bd5df9db2597cc0f648ad2daf5bb5d138017c8c452d13",
    "verify_d4_stretched": "6118e4d7d704177fcd5bd5df9db2597cc0f648ad2daf5bb5d138017c8c452d13",
    "verify_d5": "6118e4d7d704177fcd5bd5df9db2597cc0f648ad2daf5bb5d138017c8c452d13",
    "verify_json_d1": "da5b5b95ef488a8da8088b1e21ad62b5d717f436c583326c2f2906d63b76109d",
    "verify_json_d2": "35ecbb982ae0301cc814fea29dc945da28a6464a429f342d18ddb114dfc773c0",
    "verify_json_d3": "da5b5b95ef488a8da8088b1e21ad62b5d717f436c583326c2f2906d63b76109d",
    "verify_json_d4_finding": "ff988741af91f0e7085cf3de7cf22a79ea5009f64167e9d6ea2018735d26f677",
    "verify_json_d4_stretched": "ff988741af91f0e7085cf3de7cf22a79ea5009f64167e9d6ea2018735d26f677",
    "verify_json_d5": "ff988741af91f0e7085cf3de7cf22a79ea5009f64167e9d6ea2018735d26f677",
    "01_moment_tensors.py": "0d22a7ba460650a57b6d1de48122919895ba815fbeb8e3fa549ccf8260f8c880",
    "02_h_vectors_and_reciprocity.py": "79373ca5e65138ff47a53ce55ef111abefdfdcb5fee358313fa328fcca46c407",
    "03_polygon_triangulation_formulas.py": "faab93e6b2b8bbcf95003f0ae8d921dfd21e1805acff6011aa63373806475399",
    "04_halfopen_simplices.py": "be9441e70c25a09bf6b704a8b43cdce8d5712b924f9300ba08b8610eb1138783",
    "05_psd_certificates.py": "506efc7a562e59dc68cf43ce49c6296a11f9d6cdbf9c56ed2f199f62d2c46b43",
    "06_conjecture_scan.py": "09b91c3b4fbdcb5a0aea3c3e6c1b94650de090bd477c90c50814d964d0e78cc0",
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_golden(name):
    assert run_cli_case(name) == GOLDEN[name]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_golden(name):
    assert run_demo(name) == GOLDEN[name]


VERIFY_POLYTOPES = {"d1": SEGMENT, "d2": TRIANGLE, "d3": POLY3, "d4_finding": FINDING,
                    "d5": POLY5, "d3_stretched": STRETCHED3, "d4_stretched": STRETCHED4}


@pytest.mark.parametrize("wrong", [None, 1, 2], ids=["as_is", "interior_r1", "interior_r2"])
@pytest.mark.parametrize("name", VERIFY_POLYTOPES)
def test_route_identities_are_the_route_part_of_verify(name, wrong, monkeypatch):
    # ehrhart.route_identities on the production h of ranks 0..2 gives the
    # names, order and passes of verify's checks before its Pick and PSD
    # checks (polygons only), also when a wrong L^r(P°) fails some of them
    if wrong is not None:
        interior = ehrhart.discrete_moment_interior

        def moved(p, r, n):
            t = interior(p, r, n)
            if (r, n) != (wrong, 1):
                return t
            return ehrtensor.SymTensor(r, p.dim, (t.entries[0] + 1,) + t.entries[1:])

        monkeypatch.setattr(ehrhart, "discrete_moment_interior", moved)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", VERIFY_POLYTOPES[name], "--json"])
    checks = [(c["name"], c["pass"]) for c in json.loads(out.getvalue())["checks"]]
    p = ehrtensor.polytope_from_json(json.loads(VERIFY_POLYTOPES[name]))
    pairs = ehrhart.route_identities(p, ehrtensor.hr_vectors(p, (0, 1, 2)))
    assert checks[:len(pairs)] == pairs
    assert [n for n, _ in checks[len(pairs):]] == (
        ["pick_h1_agrees", "pick_h2_agrees", "pick_vector_polynomial_agrees",
         "pick_matrix_polynomial_agrees", "h2_entries_psd"] if p.dim == 2 else [])
    assert code == (0 if wrong is None else 1)
    assert all(ok for _, ok in pairs) is (wrong is None)


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(list(CLI_CASES) + DEMOS)


PUBLIC_NAMES = [
    "BoxSlices", "DefinitenessReport", "DegenerateInputError", "EdgeStats", "FacetIneq",
    "HalfOpenSimplex", "HrVector", "IntPoint", "NotPositiveSemidefiniteError", "Polytope",
    "ScanReport", "SosCertificate", "SymTensor", "TensorPolynomial", "Triangulation",
    "box_slices", "check_ehrhart_psd", "check_h2_psd", "classify_definiteness",
    "conjecture_scan", "convex_hull", "discrete_moment", "discrete_moment_interior",
    "edge_stats", "ehrhart", "ehrhart_matrix_pick", "ehrhart_tensor_polynomial",
    "ehrhart_vector_pick", "eulerian_polynomial", "h1_halfopen_2d", "h1_pick",
    "h2_halfopen_2d", "h2_pick", "half_open_decomposition", "halfopen", "halfopen_from_json",
    "halfopen_to_json", "hr_halfopen", "hr_vector_to_polynomial", "hr_vectors",
    "interior_lattice_points",
    "is_reflexive", "lattice_points", "linalg", "moment_halfopen", "moment_tensor",
    "outer_power", "palindromic", "polytope_from_json", "polytope_to_json", "polytopes",
    "positivity", "random_lattice_polytope", "reciprocity_check",
    "reflexivity_palindromicity_check", "second_coefficient_facets", "sos_certificate",
    "sparse_decomposition", "sym_product", "tensors", "to_hr_vector", "triangulation",
    "unimodular_triangulation",
]


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(ehrtensor.__all__) == PUBLIC_NAMES


if __name__ == "__main__":
    for name in sorted(CLI_CASES):
        print(f'    "{name}": "{run_cli_case(name)}",')
    for name in DEMOS:
        print(f'    "{name}": "{run_demo(name)}",')
