"""Golden reports: the sha256 of stdout and the exit code of the stratification,
Hilbert, normality, confluence and expression commands, pinned so that
refactors keep the bytes.

The stratification, Hilbert and normality digests were recorded before the
structural checks in strat, pbw and grading replaced their per-prime and
per-monomial recomputations; the verify, nf, weights and eigencheck digests
were recorded while the DSL still expanded every product into words and
reduced each word on its own.  The `qdet-verify` and `sl-check` digests and
one error envelope per row of the CLI's error table were recorded before the
subcommands moved into one command table.  The two `verify --fuel` digests of
the Euclidean space were recorded while diamond_check still built the
reducer's pending items itself, before every engine entry point handed the
reducer scalar-times-word seeds.
"""

import hashlib

import pytest

from strata_lab.cli import run

SOURCES = {
    "qa3": "use quantum_affine(n=3)\n",
    "qa4": "use quantum_affine(n=4)\n",
    "qa5": "use quantum_affine(n=5)\n",
    "qa3s": "use quantum_affine(n=3, single_param=true)\n",
    "qa4s": "use quantum_affine(n=4, single_param=true)\n",
    "qa5s": "use quantum_affine(n=5, single_param=true)\n",
    "m33": "use quantum_matrices(m=3, n=3)\n",
    "qw2": "use quantized_weyl(n=2)\n",
    "sp3": "use quantum_symplectic(n=3)\n",
    "eu5": "use quantum_euclidean(n=5)\n",
    "qt3": "use quantum_torus(n=3)\n",
    "qa2": "use quantum_affine(n=2)\n",
    "m22": "use quantum_matrices(m=2, n=2)\n",
    # 2x2 quantum matrices with the X21*X11 swap scalar squared: not confluent
    "m22bad": ("algebra broken\nparams lam p_2_1\ngenerators X11 X12 X21 X22\nrules\n"
               "X12 * X11 = p_2_1^-1 * X11*X12\nX21 * X11 = lam^2*p_2_1^2 * X11*X21\n"
               "X21 * X12 = lam*p_2_1^2 * X12*X21\n"
               "X22 * X11 = X11*X22 + (-p_2_1 + lam*p_2_1) * X12*X21\n"
               "X22 * X12 = lam*p_2_1 * X12*X22\nX22 * X21 = p_2_1^-1 * X21*X22\n"
               "weights\nX11 = (1, 0, 1, 0)\nX12 = (1, 0, 0, 1)\n"
               "X21 = (0, 1, 1, 0)\nX22 = (0, 1, 0, 1)\n"),
    # a swap scalar of sign -1: genericity is not certified
    "signed": ("algebra signed\nparams q\ngenerators x1 x2\nrules\n"
               "x2 * x1 = -q * x1 * x2\nweights\nx1 = (1, 0)\nx2 = (0, 1)\n"),
    "syntax": "algebra ???\n",
}

# (source, argv after the file) -> (exit code, sha256 of stdout); the 3x3
# matrices are not a quantum affine space, so the stratification commands
# pin their error envelopes.
GOLDEN = {
    ('qa3', ('hspec',)): (0, "4bbb76ac74039ff64579ca1c0b8316d29f64242c7a961f780dca0119481dee07"),
    ('qa3', ('strata', '--box', '1')): (0, "44df9472b3b5d12b261f8858444f6265bdc89684457e778fb0ab2dc735cd07de"),
    ('qa3', ('poset',)): (0, "b890b442adc1fd0429f980294027e8ddb7685a58c4c8e70af26e59de5031a88c"),
    ('qa3', ('poset', '--dot')): (0, "d257e4f022a5420199adcb92b309e4640cf0afbdee9f70035575bed65bce77ac"),
    ('qa3', ('center', '--hprime', '1,3')): (0, "463f4e5cb43d7f539ccc6b12069d69b2d282d230a92c1cb6b0840bb2d4c58307"),
    ('qa3', ('witness', '--from', '1', '--to', '1,2,3')): (0, "8d9217b4ff7645f133afb83e4662d7d06f792bd2ad6290c660e6b772ce753005"),
    ('qa3', ('hilbert',)): (0, "2b4e83e84e56e75f070216b6fe2794f2c227d430e467ef9409a1f5eb91f23033"),
    ('qa3', ('normalcheck', 'x1*x3')): (0, "c2306b0ac3918ddf491ad1b324f7124e4a1f26651f458b76365bf249a9a0acad"),
    ('qa4', ('hspec',)): (0, "a9ff5f3e13ef33d0c499ef4ce15a6eb0f087f982bddd31e2dcda7320c0aea914"),
    ('qa4', ('strata', '--box', '1')): (0, "6cd405f8e77d1b18ff10d1a8b057933967fec3ecbb85379856e7a1aeb7b8f955"),
    ('qa4', ('poset',)): (0, "0760feb36ed6e856cc39cb6ae594795db37feed827c8863836b0828c1c15cc58"),
    ('qa4', ('poset', '--dot')): (0, "ec3c7e569c9fbbcfd568aabc8b3948ae1c4d1c512a957cab32784a61ada74317"),
    ('qa4', ('center', '--hprime', '1,3')): (0, "4d99da8eb21e136e2977d3e34585fb22ebde4b715e30ed906fcc683c8be5e03c"),
    ('qa4', ('witness', '--from', '1', '--to', '1,2,3')): (0, "299acaf3cf02975a05ff7ea52cb33fa5d733fefc4a572b12c54359f85d8ea598"),
    ('qa4', ('hilbert',)): (0, "280299e4e18f3323bc33271c80f971999534e7a959791b539a86ca5ac5a3f8a1"),
    ('qa4', ('normalcheck', 'x1*x3')): (0, "8f3d30ec6893802667bffeb67faeab91fa2478b1e57540479740352f8c385dc8"),
    ('qa5', ('hspec',)): (0, "1458d48b39f16b0c1642b6ef405470c3248f3e5c68908c0c634bf664bad81733"),
    ('qa5', ('strata', '--box', '1')): (0, "93086db22cac84efaaaafe0c1920202c0e213f3d153c700c3aea01e1cdbf4abc"),
    ('qa5', ('poset',)): (0, "e3ea872be9e80903e7bfee441265cafd6d7624fcafc284a8ffaa911e5ea5e5bd"),
    ('qa5', ('poset', '--dot')): (0, "b93bb2d0363438816554f4bfc02c31f547a2c27c626803d0fec7378dd06ed530"),
    ('qa5', ('center', '--hprime', '1,3')): (0, "cf9bcd1cfc033a814d338c4185a2f35929cd2710e3e2e5d61ba5fcb7c871560f"),
    ('qa5', ('witness', '--from', '1', '--to', '1,2,3')): (0, "3634381becce136b99a8eef718287a77d9299f90877fce49def615a1e9b8a270"),
    ('qa5', ('hilbert',)): (0, "26790b083d7d7737f9c747816944d32057af4d8a67b28766366b1761b5912d52"),
    ('qa5', ('normalcheck', 'x1*x3')): (0, "9eb70114968fec864a68e6c5db8dd7d8dad38e7203aecab281538232c7921e17"),
    ('qa3s', ('hspec',)): (0, "94d85d90b37716d6efb7b6eff9b8dd5d3fc82557991c093712959803fa8fb6ef"),
    ('qa3s', ('strata', '--box', '1')): (0, "326fffb5cea9e9cd542422cbd901a9a55934b15b1a10639c5ba69c78184843d2"),
    ('qa3s', ('poset',)): (0, "3f2d2398ea9166dec163d1823f986df96813c5bd86242fbea28a65f7a9117f70"),
    ('qa3s', ('poset', '--dot')): (0, "f7fe9cda725864851b22cba0488e96555929ecc4e4d53cc2130245610cac1729"),
    ('qa3s', ('center', '--hprime', '1,3')): (0, "438d0d122207346ae166c2df9da8219d2caaedc667fbe76ba0b2f289e84873b1"),
    ('qa3s', ('witness', '--from', '1', '--to', '1,2,3')): (0, "ac091b4117d182a9d53bc510ce066c853bf7873252d49acc440481ff71812f83"),
    ('qa3s', ('hilbert',)): (0, "e27c7706fb6e1da5eccac3c3c8087419d2230c2da3cbf6d75ff8f1440a55b461"),
    ('qa3s', ('normalcheck', 'x1*x3')): (0, "98982b0c6be026eb582187795e33594fbeedde8cefe99184d65c3e1e2f3f271a"),
    ('qa4s', ('hspec',)): (0, "310042198014cff3b4d4856a56153e271e293020d789bba41a8d95c659d4dd9e"),
    ('qa4s', ('strata', '--box', '1')): (0, "f779131270f7e4e7017eadebac4cced256da5626739db6eceea4efa3ae2a83be"),
    ('qa4s', ('poset',)): (0, "42d86f26266305adf6a26bac06e1ce04ccaf3ead498c2f02eca081dc5bb7b50d"),
    ('qa4s', ('poset', '--dot')): (0, "272c2360efc38220869066eb172a5d4d65ed46e923370bcf39807e15b87ff6ec"),
    ('qa4s', ('center', '--hprime', '1,3')): (0, "bfa32c98dddc7c90c20a9de46f1df166135ec42db4e81363f18bfa81c2a39e04"),
    ('qa4s', ('witness', '--from', '1', '--to', '1,2,3')): (0, "7987b736172254ad24e0fd2355a59f791b591b5163d729d2a27c904ff144cec1"),
    ('qa4s', ('hilbert',)): (0, "de8f9a002ab532910d99981b7965d0939f4db474b7e2e8d531ff968e55e56893"),
    ('qa4s', ('normalcheck', 'x1*x3')): (0, "d842e2149b0faa491d902292d1e559f64102cfc27f7c5f9ba56f0af5e6cd9085"),
    ('qa5s', ('hspec',)): (0, "e34c4831e456bf134ca054e717bc94f315fd78c9e2d40d05a2b7a622eaae2fe5"),
    ('qa5s', ('strata', '--box', '1')): (0, "f28fc034fcaff02a84b9d8870b89255cb55ca727ed430486741336bd2633035c"),
    ('qa5s', ('poset',)): (0, "104585c654ac138ad8f07eebcba4f395b03270500a94b72b401806eb4a4ab2a7"),
    ('qa5s', ('poset', '--dot')): (0, "cedb0d3a25fdd82313eb0f1463f0107da6edccbc5290714f62a26caf6868df03"),
    ('qa5s', ('center', '--hprime', '1,3')): (0, "647e218af0deb5339383326466a36f8322574fd36c19b824a4b779bb9eb44b27"),
    ('qa5s', ('witness', '--from', '1', '--to', '1,2,3')): (0, "b5dd8442e6e5d9134ae156597ea3b6e7f1d2caca80d21d72d814d19f0300a8ac"),
    ('qa5s', ('hilbert',)): (0, "a796f82fd483b465b40c5976fe2643577894ef7b0c0b3f6bf19d732e063cb4b5"),
    ('qa5s', ('normalcheck', 'x1*x3')): (0, "1274af61be05955434b5ba63908b489efc07ff574ba7400a950ce79bdd1c6f92"),
    ('m33', ('hspec',)): (2, "d6f573f89d21e9540bd4e2849dff9bfc3a57e8fbf7f6b223905450c242fd2f37"),
    ('m33', ('strata', '--box', '1')): (2, "c270a46be65b81de23830326d7034a03d96129f2d28644ca4ce04556e208ec67"),
    ('m33', ('poset',)): (2, "2c29563438bbf90a84c9503657e040855150e5f457591e3d9483e920334c35c8"),
    ('m33', ('poset', '--dot')): (2, "2c29563438bbf90a84c9503657e040855150e5f457591e3d9483e920334c35c8"),
    ('m33', ('center', '--hprime', '1,3')): (2, "2ef4c80cd177b9bbd65e9ae1e3f9c02dc2ff2d8501c6548f6e14d29dab0d38af"),
    ('m33', ('witness', '--from', '1', '--to', '1,2,3')): (2, "ea30541251f4ee0fc09474816628c92b9fdc33e0a7758edcd410758e7f42cb57"),
    ('m33', ('hilbert',)): (0, "40d7993bf5c279b6f83738e32111a4f17c5ceaedc73bb6fa20047b449ec9e7b6"),
    ('m33', ('normalcheck', 'X12')): (0, "a99c1b6157a05b4a886590f4cb3feeb6199c465301e565f247be4290a48cd562"),
    ('qw2', ('verify',)): (0, "81d77c5ebb15429ea091e8392e0a7f742f06f82f71ad8b4ea03b589c448cd19c"),
    ('qw2', ('nf', 'x2*y2*x1*y1 + (x1 + y2)^2 - q_1*y1*x2')): (0, "494a97c71047deddd73956e6741f900c1ad07185b7f9edcfa6c0aac71373a6da"),
    ('qw2', ('weights', 'x2*x1 - (y2 + 2*x1)*y1')): (0, "f2b7db00849f98fa32f0863249e6502f9b3c7fca986613937ff18a83701c5525"),
    ('qw2', ('eigencheck', '(x2*y1)^2 + x1*y2')): (0, "f8887c9b48f221d59b4db680887a63c1423cbf7a548cb514f93c177faea17d6b"),
    ('sp3', ('verify',)): (0, "4a009ef889040e1bed47e8f00a707fa65e4658a92e2aa9911c599a556e009610"),
    ('sp3', ('nf', 'x6*x5*x4*x3 + (x4 + x1)^2')): (0, "4abd0a50b3d718216118d2566475224f46cef57e2de55ebff0544d145fd83abd"),
    ('sp3', ('weights', 'x6*x1 + x5*x2 - (x4*x3)^2')): (0, "26d64e8f31e777c0d28d6214aea7c3101d9693c288b516e5155533e3914390cf"),
    ('sp3', ('eigencheck', 'x6*x1 - q^2*x1*x6')): (0, "c555697df430d28ed22c0d23f2c431980a14d35e8cd1332c908d73f1ffda8868"),
    ('eu5', ('verify',)): (0, "d8748eb80fbf345dcdd5d4339898a5664f217d1f711e2bdc153cb8c18803652d"),
    ('eu5', ('nf', 'x5*x3*x1 + (x2 - x4)^2')): (0, "ad88395bca786bcdb9d5fff97abcc52081eca77ad1fa146efc55e505f95fda1e"),
    ('eu5', ('weights', 'x5*x1 + x4*x2 - 3*x3^2')): (0, "ab0c0be5f9991c99bc9d142ba27407eeab65f9c3026cc2f8be5330499b0d60b4"),
    ('eu5', ('eigencheck', '(x5 + x1)*(x4 + x2)')): (0, "7c1e0ed454595679aac4b6c54ca25b06af9d8192e3dfb06b091b24011782b5e5"),
    # every overlap runs out at fuel 1, and 5 of the 10 at fuel 5: these pin
    # the sort by triple and each overlap's rewrite count
    ('eu5', ('verify', '--fuel', '1')): (1, "030e5cdd0a3cd5ec64b73a54aa224c8267847ecbc3f3d98ad7bddf391c38be24"),
    ('eu5', ('verify', '--fuel', '5')): (1, "4b297ab3b158b838c90f08466ec825283c32b8cd6c493292984c6fdb0b7d2f19"),
    ('m33', ('verify',)): (0, "74285fef4e5de1aa2fa533263b403944c51f1e357f26a3be6bf5e686a8f9b5fe"),
    ('m33', ('nf', 'X33*X22*X11 - (X13 + X31)^2')): (0, "2a22d6ea6837d3c6aad9c53efb4746a7bff78e3e795b35d8717efc5a85b5f47d"),
    ('m33', ('weights', 'X33*X11 - lam^-1*X22*(X21 + X12)')): (0, "0d9aaa82245141b05c119e195725142f9223718aedb49ee6339d566471a1102f"),
    ('m33', ('eigencheck', 'X33*X22*X11 + X13*X22*X31')): (0, "4226d00b4c8e54c1717985b24a37b871a35c157bf47a39a72e622e379e53dbef"),
    ('qt3', ('verify',)): (0, "ed844fcf11d99600ac3763465889b9e5ec90d5070fb1ebdd7fb4958cf631e3bc"),
    ('qt3', ('nf', 'x3^-1*x2*x1^-2 + (x1^-1 + x3)^2')): (0, "6d54603b9a28aabee3b59c8de584f539ea2f5bfac020fa1a58ab79c61af8408a"),
    ('qt3', ('weights', 'x3*x1^-1 - 2*q_1_2*(x2*x1)^2')): (0, "39711c369bfc3a476fdb4b5d1656cf8534fb5218a7aaccec3ac7630453d55c8d"),
    ('qt3', ('eigencheck', '(x3^-1*x2)^3')): (0, "91ea9024d6bf16d4da3e0962f789a935e0da61c2884fa8c8fed17e184c0a2b20"),
    ('qt3', ('nf', 'x3*x1^-1 - 2*q_1_2*(x2*x1)^2', '--specialize', 'q_1_2=2,q_1_3=-1/3,q_2_3=5')): (0, "dcf1662e4caa2190717a56a163877326ae891cd15a0c7aec78e2aae95cdc349e"),
    # one envelope per kind of failure (exit 1) and error (exit 2)
    ('m22bad', ('verify',)): (1, "f2f9472fac2d1b0e0dfd2b23878ef36ebbb4d316cea4f45173cc8efd49712f73"),
    ('m22', ('nf', 'X22*X11*X21', '--fuel', '1')): (1, "1f41514001c665fa1fc981a3ae15de39bf390353e0b3c7aaf2761f03296a3454"),
    ('signed', ('hspec',)): (1, "388a91cba12db55fe06920ea2678b0adc6e86c8036fae23a77874f2fec130405"),
    ('qa2', ('nf', 'x2*x1', '--specialize', 'q_1_2=0')): (2, "1a83f4455d4702185136a9019e860723bb6b2c56d68aff68a5bd5f700ccb4fe3"),
    ('qa2', ('nf', 'x1^-1')): (2, "b2170422525e601de95e5d2d9ffafe0552ed69f46ec3a0271ab3dcd4c644e3b1"),
    ('syntax', ('verify',)): (2, "5b2bd1687d06e36e602295987005e96851f846b1d9d2db9f4920cfb887ac52b0"),
}


# argv -> (exit code, sha256 of stdout) for the matrix commands, which read no
# file; the `qdet` digests were recorded while its handler still built the
# matrix presentation it never read.
QDET_GOLDEN = {
    ('qdet', '--n', '2'): (0, "811387f79872ffe81b0dc04b951224fc338032033cd3f8b66c88938e5beb4ab8"),
    ('qdet', '--n', '3', '--single-param'): (0, "f0db63ed87b2f659ef43ff57d6ca502e8d1e744ef75b6cf774a034c67af7668e"),
    ('qdet', '--n', '2', '--specialize', 'lam=2,p_2_1=-3/2'): (0, "9f8b3bef23cf6b18849ab6dd839d8e12dc8272addb308dd63f25b7d53f45c27d"),
    ('qdet-verify', '--n', '2'): (0, "db3c110a5dddade263cdb77d39b0e7b66534841bdfc28acecc8e9e009ef0e99a"),
    ('qdet-verify', '--n', '3', '--single-param'): (0, "f417c15fef245b62bd864b720cb367ac563efb342f3523fe08932cdec3a086f2"),
    ('sl-check', '--n', '2'): (0, "fa572bc7f807cbb227f72cd1452c24b9429a0d056268f89371d470c9625e36d3"),
    ('sl-check', '--n', '3', '--single-param'): (0, "e0da667e0241c12914c387a5701986281bb3bbee9160c70249ad2e7e4e17fc3b"),
}


def _case_id(value):
    return " ".join(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("source,argv", sorted(GOLDEN), ids=_case_id)
def test_report_bytes_are_pinned(tmp_path, capsys, source, argv):
    path = tmp_path / "alg.txt"
    path.write_text(SOURCES[source], encoding="utf-8")
    code = run([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[(source, argv)]


@pytest.mark.parametrize("argv", sorted(QDET_GOLDEN), ids=_case_id)
def test_qdet_report_bytes_are_pinned(capsys, argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == QDET_GOLDEN[argv]
