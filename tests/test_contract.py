"""Pin the output contract: sha256 of the stdout of ``check`` per fast suite,
seed and backend, of the convolution, padic and plancherel suites together
at seed 0 on both backends, of ``dual --builtin`` per group and side, of
``fourier --padic`` on one ball per prime and of the ``padic`` calculator
examples; and sha256 of the exchange bytes
``exchange.dumps(qgroup_to_obj(...))`` of the standard fixtures and their duals.

Pass output is byte-identical for a fixed seed, so any change to a case name,
its order, the record layout, a dual's exchange text or the reduced-basis
coefficients of a p-adic transform shows up here.  The slow suites run at
seed 0 only; the balls stay at or below 729 cells.
"""

import hashlib

import pytest

from qgfourier import cli, core, exchange, fixtures

DIGESTS = [
    ("check axioms exact 0", "5bf15606a2316bf9d8bafa3d20a87f76baebec769f85ce4bcb408cf7f908dcba"),
    ("check axioms exact 42", "72424bbc976ec450fbdd0a4796dbe083c8ad7785a2b693d47540afeee6f24bec"),
    ("check axioms float 0", "e77e17dc5309a5ccf181a7fa98490700f4e923424a64c05a0940a355492434de"),
    ("check axioms float 42", "52fa4c6ab06324c89ed246050b48626f0af5449d6032e295fa1b5c642c917407"),
    ("check inversion exact 0", "9ac9ed7da99602768a5af9df098d7e0a62893b188ee6cfdc4b0bd81ba6bad8fc"),
    ("check inversion exact 42", "5dfaec50414c45ee897c7915daaf4c276f8d64fe85367cc74119eafbae51b8cf"),
    ("check inversion float 0", "c287e2d63717915b6cb1d95d2271571963d83073f71adb77e03526c0eff5b059"),
    ("check inversion float 42", "fef1eef8b006b9e0b9059171d21554539b5031762cf07fe00df768fb461b2ecf"),
    ("check inversion-lemma exact 0", "1a0d926aadc9ed0dad84387aaa804874c38ec49c19951ec730d764ec81ec80a2"),
    ("check inversion-lemma exact 42", "0c14da100dcbffc180503c18b64280d5b91fd50c3f572bcaf761f24f5ae6e246"),
    ("check inversion-lemma float 0", "3c7b6f02d16b01439957386d6a81e73fd2f5cf26610718b4a5d2772e978a76dc"),
    ("check inversion-lemma float 42", "60b3b5440efad066cde212e32e1bc01f0da089e655eda8fa53a13e66624a0689"),
    ("check biduality exact 0", "cbbe9fc0e7c86414c8cedaf3bc14c24927c17e9d0246ed026a54c3a99f9c8f45"),
    ("check biduality exact 42", "d93a7754cc5e8f5d2daf8f76df2e111ef9d8936a96ca25ed7b2586edebf54712"),
    ("check biduality float 0", "917e764f258ce4d0f832346c1366ea409d3127b05b298c33d55e1d0668663f06"),
    ("check biduality float 42", "fefdf28b0ac4d7abd84fbf69655e5136b27796aeb1893d3c68c1d451c746ef9b"),
    ("check types exact 0", "2500d383e401a3758fe4fc5e9e1c61d9c7a0ccf73b4d86c31fe0eb4ca7c82f11"),
    ("check types exact 42", "13e71dd95a704616edf28f428f5ab577ef5cf0045099b677b2fefe809dee35bf"),
    ("check types float 0", "12d2aaefee5b3ca1dec99fcdb041c84f891d7b0142e04861e1c51f843779f5f8"),
    ("check types float 42", "4bd68a8fe3324a8047ce47c114abae305dd0d7b6755834a324f2b6749f909002"),
    ("check grouplike exact 0", "3812d342dafe8bbba2ebd50857c1c6d684ee509a2953fc128558faad5f73ffb4"),
    ("check grouplike exact 42", "fb16844aa20b15789f40954b1571ce1cac36908050cfce4d4734c4181c82efbb"),
    ("check grouplike float 0", "f80ed61b70bfb61e35c9bb41f69071d1c5ea7b27713c000f8358a3f318f179fb"),
    ("check grouplike float 42", "0b861fe980b8f6323764214baf31a7e7b6e7aed93530394d0ce5b3d592487120"),
    ("check oracle exact 0", "818d6e92fd8e055a2f43cc05604c6949ebd80d27fb0680ddc67282df31cfba35"),
    ("check oracle exact 42", "522c6e24858fce076d895da6f4b7de7a6434b8ab7c16aa2584140e82608abfda"),
    ("check oracle float 0", "ec55deded3d2a581b57d4eb92eb2ca57ab6c1bcab1ab79c939f099c874e5fb92"),
    ("check oracle float 42", "0baa33dae450d52a68ae2bd28f0170bd6db32fcb0bf112a0f36196f2da5a0583"),
    ("check duality exact 0", "b92590d58fa9f965d41f9da667725b26b0c2e48f2006a778eb5b5f9704a6c254"),
    ("check duality exact 42", "f7124968946cd4adbbbfeab42812eb448bf1b0cb564bedf1b649d07ec725ee01"),
    ("check duality float 0", "3696bf7614d1e5b830024e6551cde7bc63589c223361b5d91c7b221347313808"),
    ("check duality float 42", "0d065553829bbdc5bb5b1c0da98e939c2c8ac79c45fa76627ba1cb8950b9b48a"),
    ("check convolution,padic,plancherel exact 0", "08b7161bf6cb28d4f324daf3fe9f8278ff672f7662a90d82de254acc1cc51093"),
    ("check convolution,padic,plancherel float 0", "b72bcc68bf04c918f731ae37b21ac763287b0ccb400e6018ccc451b29ab86a12"),
    ("dual trivial function-algebra", "27ba6f3c0237dc491bbf5bcefe2a2c2511401529c92439994300614164be7f0b"),
    ("dual trivial group-algebra", "9b743731551f2efea45a311f70fb086746302c7ebd8f845275396116ee29cdd3"),
    ("dual Z2 function-algebra", "a4135cd57536016e5d7d388358e2606fb9afbf74e2dbdd7e9f1dbd57be45856e"),
    ("dual Z2 group-algebra", "6bce7e0f468fd84e666824e4e2b44c19d6525d4b7b8d4a4bf985981ef85c590e"),
    ("dual Z3 function-algebra", "f700a2b13e6acb0760e2ae92bdaf5f34b9f901adc1d1d7abf0a1ceb92d42735b"),
    ("dual Z3 group-algebra", "63bcc5250acef2a40221462d7fdd7226d53efc97004f541e89db4745f401f68b"),
    ("dual Z4 function-algebra", "4a294ffc517ccdfa26675b788d5539cf5ef73cd9958c8f62372a8f8573005491"),
    ("dual Z4 group-algebra", "a70452eaf6674df09a531198d9ca97e0b1d7960fbd27ebbf5c736cbd2414a6df"),
    ("dual Z2xZ2 function-algebra", "15ef1f2d55e6b2508241d24eeb6ba28ff7273f4984fe892f9b854e67b1d15c70"),
    ("dual Z2xZ2 group-algebra", "6d9885c3fa1e85d35a9e2b2a6c50d131a6c783ec23854bfbae3d9e0d8fa3284d"),
    ("dual S3 function-algebra", "a2527ba154fc717244c0ad33ae1c9a692911ec75bd2e92e891e76f3cda798880"),
    ("dual S3 group-algebra", "81b69062f54d933cbc1bdfa768dd69829256836af14f58ad1f8c672cf56ca6c4"),
    ("fourier 2 1*2^-4+2^5*Zp", "3fcedbf07d49940a1bf7091e9881c43af27a92feaabad3a540789e97ba0ab0a3"),
    ("fourier 3 1*3^-3+3^3*Zp", "6098e0d69e87dcded8883ce217432f2bf61c02d9b398434a6a1978eb5c460b09"),
    ("fourier 5 1*5^-2+5^2*Zp", "347797613af93cd219fba8a39634753f3a10f899a1eb5fa21555c72972d48d50"),
    ("fourier 7 1*7^-1+7^2*Zp", "11261edc9b6212957b99d1bb6f4d0fcf1b8ae27b9e871316030203987c9445c4"),
    ("padic norm --prime 5 1*5^-2+3", "64aeb9975f234becd55bb4635e6e2f2da7a6b7bf0a896f0c07763bdfbfb31420"),
    ("padic char --prime 2 1*2^-1 1", "3e777712c1b9d41fea467106d753bb276e99728ae51b5691bfa131afbb06feef"),
    ("padic integrate --prime 3 --ball 3^2*Zp", "47631d06e3da6fa6a1a6cdd1f2431c7ddba918a1bb9ec235c081ac33576f0538"),
    ("padic eval --prime 2 101.01", "c6847cfda39d050dcea945482ce345601942d2d970642f788c7a433bfb2e8ddb"),
    ("padic eval --prime 5 1*5^-2+3", "d4b5d0e096963f07468e1ea2d28c924f90c6f9568afb39ae4e1452dbac53a966"),
    ("padic norm --prime 5 0", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("padic char --prime 3 1*3^-2 2", "44645df2609407089096737f81ce7410da38f78462923d8bc8b1bfbbbd0c33b5"),
]


@pytest.mark.parametrize("command, digest", DIGESTS)
def test_stdout_digest(capsys, command, digest):
    name, *rest = command.split()
    if name == "check":
        suite, backend, seed = rest
        argv = ["check", "--suite", suite, "--backend", backend, "--seed", seed]
    elif name == "fourier":
        prime, ball = rest
        argv = ["fourier", "--padic", "--prime", prime, "--ball", ball]
    elif name == "padic":
        argv = command.split()
    else:
        group, side = rest
        argv = ["dual", "--builtin", group, "--side", side]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


EXCHANGE_DIGESTS = {
    "Fun(Z2)": "d8a9b384314657be23cd3f59626db057766b1fb201714d3e787e465afc376864",
    "dual(Fun(Z2))": "56800d7c11e2886bcad4b149d245426e933fe28576476806eea051565c0d9cb5",
    "C[Z2]": "7fea6250703c872ed30257865e810d7f64e416b49cbbbd302736aa8721eea094",
    "dual(C[Z2])": "e21c0fd2176522234cd19e4a9e27ebd767c5842bfe1b9276d19e3600e44e37ad",
    "Fun(Z3)": "6afa611126e6c4b5412a173972959259fc721361188f4af4475d71950e2f80c7",
    "dual(Fun(Z3))": "92bacb378f2948064833f9e435c447666815c7a523591a24d5ab0232a282072a",
    "C[Z3]": "5b46ad03143ece52a79941462325f23883ac996f65e1db4f31a3f29b1387c176",
    "dual(C[Z3])": "c1857731a44c75fc3600625f3010cd4a82ca8131316d6a52c2529e78ca10b644",
    "Fun(Z4)": "06919c96015b4476b325692181fe6546686e2b9861dacfe6256182e254e35036",
    "dual(Fun(Z4))": "df3c815c2e5aff5b5fab760940ff4207d2f1f3cf47c11100e212918b68fab320",
    "C[Z4]": "b65bb699c21ddb6293960f97f09338129d2a24e8efe8d0b6c42f041df24f5071",
    "dual(C[Z4])": "b3868c9e2f3c4fd91ce1159bfe0b36f4afbe80c70ae249a77b059655171fcfef",
    "Fun(Z2xZ2)": "91dbfe144977ac543b5e07aa534a0b6cecc181cc074c9725cd9d0bb126817e3a",
    "dual(Fun(Z2xZ2))": "7464c622f94c0d8902df878093e7b6473ac1d492dcd86940beb05e55c5840b26",
    "C[Z2xZ2]": "e70bb57bd515d17b57523618f2269f5c3d7f9f9497ef6619056addd6fb9e5bac",
    "dual(C[Z2xZ2])": "c7ee505d9a1ea02c46a9dff11137f2ea81e50ad3f6b35fa222d6a58cfdacb0fa",
    "Fun(S3)": "70f25201f58157c9a5ac9389cb8a1728c2e8d60538858206b063ac862e22cd13",
    "dual(Fun(S3))": "089fe4812b6102b30c3ee2e14b68e4ba7d3c49f94b8ece7de013960dc50d985d",
    "C[S3]": "2478ed40fa9bc460d6a8dcec30ff79dad65821d5f9ed73fe1df65bb558336f7f",
    "dual(C[S3])": "0253e636ceb79c1d6e6ab333eba410b57e6c1efa6bb582a8073936e8c269cca8",
    "H4": "900d1f3b14a9a510dd452405e377ec6ba8557d5ec794cd99a7eeab9bce567239",
    "dual(H4)": "cf72e718d8cd419cb2d8071ab50dc0af40cb8809bf398dc6758c4ad4eb5877bf",
}


@pytest.mark.parametrize("name", EXCHANGE_DIGESTS)
def test_exchange_digest(name):
    dual = name.startswith("dual(")
    A = dict(fixtures.standard_fixtures())[name[5:-1] if dual else name]
    if dual:
        A = core.build_dual(A).dual
    text = exchange.dumps(exchange.qgroup_to_obj(A))
    assert hashlib.sha256(text.encode()).hexdigest() == EXCHANGE_DIGESTS[name]
