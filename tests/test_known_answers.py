"""Known-answer vectors: the cipher's output, pinned byte for byte.

Each case stores the SHA-256 of the key-derived keystream image, of the
quantized mask quantize(chaotic_image(...)) and of the ciphertext of
synthetic_test_image(n).  The keys are the default fixture key and two
``random_key_schedule`` keys drawn with fixed seeds; every key runs at
n in {8, 64, 256}, in both modes and both normalizations.  The first 32
slopes of the worked-example stream are stored as ``float.hex`` strings.

The digests were recorded from a dense-matrix implementation that is gone.
The v1 specification in tests/reference.py, which builds the pipeline again
from the paper's definitions, recomputes them at n = 8 and 64 and for the
default key at 256, so they are what those definitions give, not only what
the library once gave.  A change that alters any byte fails here;
regenerating the digests is not a fix.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cthwave.chaos import LambdaStream
from cthwave.cipher import chaotic_image, encrypt, keystream_image, quantize
from cthwave.imageio import synthetic_test_image

import reference as ref
from conftest import random_key_schedule

LAMBDAS_HEX = [
    "-0x1.768156372bdeap+0", "-0x1.19d9785dc98c8p-3",
    "0x1.b24f010551b80p+0", "-0x1.e7c70f7526565p+0",
    "-0x1.54c9915207525p+0", "0x1.3daf649808928p+0",
    "0x1.8b24b8eebb540p-1", "-0x1.1dd762b1eb3bcp+0",
    "-0x1.0063383f7c780p+0", "-0x1.b99fe75971672p+0",
    "-0x1.57f279563fb05p+0", "0x1.12b29842c40b4p+0",
    "-0x1.1db8aeaa2cac0p+0", "0x1.3399e6a184560p-1",
    "-0x1.0250271189216p+0", "-0x1.cde96ee482c80p-1",
    "-0x1.f4bd0e11b3ff4p+0", "-0x1.472f816829054p-1",
    "0x1.3883252861000p-1", "-0x1.05571785b0c40p+0",
    "-0x1.0cfe2238e3eabp+0", "-0x1.c695a6006b6a0p-1",
    "-0x1.f06334cafc031p+0", "-0x1.044e25ac42c21p+0",
    "-0x1.c252ab4288a90p+0", "-0x1.f54c96effcf2dp+0",
    "-0x1.21ef6ccfe9cfap-1", "-0x1.280f938032200p+0",
    "-0x1.084f69ebc2e6cp+0", "-0x1.889d801818240p-2",
    "0x1.2152b33a3e3c0p-2", "-0x1.57e8e8f45d6a8p+0",
]

KEYSTREAM = {
    ("default", 8):
        "e4981ebe6f2a52765b8fa7d864afef8c652deeeb07d496a01dc51e853cf95c5e",
    ("default", 64):
        "1f3320d4739e3a7014e497cbcc4f55bf7627be2a1f1768ee25796eee9e659b08",
    ("default", 256):
        "a183a950534b8e83f05e7066f9ef2f905f3bbfc1c3fbe15627514d48f4d210d1",
    ("random-1", 8):
        "c86f9cf4fa447759484903206e704e552f3d4ed833964055c31bab7e4dfc1ccf",
    ("random-1", 64):
        "384e3e1b0c1db7650588f699e337478e65baecf38cf5d33ce60e958046df7a6b",
    ("random-1", 256):
        "0623f234d2d15767863be4fbc581ebd2d53db91ded5c3c1886c3e58c83d734c9",
    ("random-2", 8):
        "0c98050e633b873a86e10940925a8e6437adb79da07a20bf062cdc0009931470",
    ("random-2", 64):
        "3269832e7fd7cacb1eca220ad0e0aa9cc36826ef34c6626a8f791a8b079bd58f",
    ("random-2", 256):
        "ff3a52550af7cb36801cddd1a276f77c24b08d64feee12674e0e50fd2f3f2393",
}

CASES = {
    ("default", 8, "keystream", False): (
        "00e2e272cdde6dd9fbf4732e47ac6fa030ab5d6cb0accf9c619cdf59706e6b87",
        "5fc989278d95feb6535a72cee5c9c030615e8e96b95712d555943e343fd367df",
    ),
    ("default", 8, "keystream", True): (
        "f26330e2c6ec952e0f537b84642d3d23b792557d8db4c2ecaa56d42b10ead56a",
        "34ed9aa59a593dcd62deda47301d4ae2422ebf49250220bfbf9a36e38f299d45",
    ),
    ("default", 8, "literal", False): (
        "b768322a05cde2cdf02990234a5a33855b67e8ee76e8dd56df7f0f02b62ff1eb",
        "6c540de1ecfbe93319b369ecc22882bbb9ab694a9429caea6628b7e7612a5de6",
    ),
    ("default", 8, "literal", True): (
        "aafdd763e644eee43e727c21da36a91845c710ab431d0f95183cec2186b85f5f",
        "9f7c2d3b1fd4966c501622a2d211c0720ee14157f1ab4fb4cb2694c8a9282eda",
    ),
    ("default", 64, "keystream", False): (
        "f8f925a08d8129665c399d8d06cfe7c5cee20b650656815edcaa65ff11a1ce9b",
        "1f2050f8ab1ccea37979421814239b643934364574f293a883dc2d68bbd2ce4b",
    ),
    ("default", 64, "keystream", True): (
        "92373a47723527426d0cfcf79dde1a5f8b551809ff2673241e547d505db516f6",
        "596aa4d2bf5acd18df47fa194467e285ae5b06e31860ea77d20aa996e5af93c6",
    ),
    ("default", 64, "literal", False): (
        "aad7b3eab8f02ecaba8f06402cdc8178c4ed83a4e690b6ee1ebe1a1692957ad8",
        "b0a2bd6e79ec9e528b16a3f6bc3c3c520c7b38da427ce6bc69fd88f30502b856",
    ),
    ("default", 64, "literal", True): (
        "75f0aa71ea2373b6e676cd963396c6b7e463991a2cef3dbeb56454fc40cccda2",
        "114b683d2468d94dc34cd115faf24c51a8c93e3210fdbdf0bdfaeb7a0faa64db",
    ),
    ("default", 256, "keystream", False): (
        "17d3ac474021e478dfc2601f9a7ad91b90e3492d940465f258094d382e57c89a",
        "826a88afb2d39898ab9773168486c2156d636bf8cb751530660c7ef1c7ba756d",
    ),
    ("default", 256, "keystream", True): (
        "8706c9e082d5d161225707deb9b6009b770155e18b6e9f2b310a2f67a271caac",
        "ca7d5d1984193b5955ad4e3247de51f8fc364cb17a15f07bc2ec6def6c8915d3",
    ),
    ("default", 256, "literal", False): (
        "d899e4ffdf13ecc51f19a06f81ae31284d914557ed8cd04f3e33f2273919e90b",
        "f7fb0c9111b37bfde2778fb30d4070797f03ad13af24da9a5f9ffab42e685563",
    ),
    ("default", 256, "literal", True): (
        "b34d6f271608f4e8b51dde56a5742e99043f1f9504906fdb734fb9133017318f",
        "9f1ced178f2b312c053412d53e0404fd6d646e34013604e6f6260e5697e9f4fd",
    ),
    ("random-1", 8, "keystream", False): (
        "4316b630c52b858ad70d0ea449736ea1a21e1b20388ffe26935d3d4b4e67296b",
        "9462dca47ba48cc6d26e0af740d3269e8cffe709b93d70b8a4abd764523c0b5c",
    ),
    ("random-1", 8, "keystream", True): (
        "6fbee37bcc2f6a745aba36cbd63c048f4e80cd23fad7579110939341091f85d9",
        "a35501dd4ddf4fe203ecbcdb2e2c38abde6d63dbe677587cc5b191f7a35bfce3",
    ),
    ("random-1", 8, "literal", False): (
        "8f81b29cd3bd6140b79b986837bef0ddf2cd7c066bed25b2e36ae7f95bb18c7e",
        "090709e9b2870cb00785b18a3aaf1fe95656a14ba78f5f440d24c013ca69ce12",
    ),
    ("random-1", 8, "literal", True): (
        "a844435f5c571602798bb1e7427e56d2dcef456e5b8941c63433b07da062312d",
        "419213287a7328e5744919b144341e2b03febb2d9585f33cff2cdf6929848ceb",
    ),
    ("random-1", 64, "keystream", False): (
        "23976e829cf6d447ca493edc89e841edc764b6dae260ed7135c22160525a7d46",
        "8abb89741b58ad6ef2c2c2e2f1ae63aa226ae3154a2cde7d917f00176c7d671f",
    ),
    ("random-1", 64, "keystream", True): (
        "17144b4b813eb96516306985a716523a35039b0d92cb6457476b5394b8e283fe",
        "2bb1f9de18f80357f321307149d1b22a5291d05cee43c08d805b0a2c915d29b6",
    ),
    ("random-1", 64, "literal", False): (
        "7895300f318267d4b106b2c58292854e0e40e40a8ed5cf4775c0173f088d15d8",
        "a3157f773ea0ea2bc404e5baa7734dbaac4d2d8e352ca0fd7795a59482223a1e",
    ),
    ("random-1", 64, "literal", True): (
        "903fc89bd7f80ad6bba735c71bd5b7a8691661bdc4393aa166d156357e37b2c1",
        "7fede71480c7f009da4a5f3f6aaff03db24ec0aa50307de1db5afde025afcdc9",
    ),
    ("random-1", 256, "keystream", False): (
        "e538c0ed8903c94699333e3e3fcc0679e57bdd7572cbb8c1c3d5d0ca201a5196",
        "6a65c3a294e63559b2a25a5501e4f79a1c5629e3799dbd8479ffd72104727365",
    ),
    ("random-1", 256, "keystream", True): (
        "092cce058dc16cdf7717a012b785165b0c0b6a1be4b7225e04e9dbdeb54ea384",
        "96a93159ae934d8aea9201dce881d53640a9db77442e70e4d42eb94354c9ccd3",
    ),
    ("random-1", 256, "literal", False): (
        "f08187d994b7f9550cbcb01dfd9703a716752a34fe4db37d0fe5eb45f756e62d",
        "2014aa1a9a6208a81b4e3635d233db17871fc4db84aba682cb2874ff1fd1e337",
    ),
    ("random-1", 256, "literal", True): (
        "bd374385749798afd6253b5c80c8a8c2aa279ddbf62691872a45d8d52f144e37",
        "21da5a88c1ef5cb12cadb016879cadd5d6995a4c5a5ae42b3d820f418b8b9b67",
    ),
    ("random-2", 8, "keystream", False): (
        "654f8507bf116ad5dfecdacfe54a636ca474eb8daf4b3ba0671be6d0c293d255",
        "3f1408f190b37a7a5f0ceedb814f7a4981d137880d092e54de286ec21e985e1d",
    ),
    ("random-2", 8, "keystream", True): (
        "ae540445fbe0d412a8a56cf77f6a611964db86031755893fac3eb269218aacb6",
        "e27baeb18c6d28cf3a55e55623526106dc05303e1b862e4fa2fcb426b7f0647e",
    ),
    ("random-2", 8, "literal", False): (
        "b4a7edcb94b6b07c459f20e442448dac8d7d426eaabb5c169bca679734d84ce6",
        "b19d4ded21cc01f1bf520781dd5bac9c50a31e1b8f5a51b221085a4eaa1bdb12",
    ),
    ("random-2", 8, "literal", True): (
        "6e74924741ed1763a4cf167d737c0c632e9512992bf208024033d9129eb0954f",
        "8e037a87fa1ccdd8bc7208aff47659136f05d49943ee6273223380d52f4f660b",
    ),
    ("random-2", 64, "keystream", False): (
        "3479a520dd0cb283b8d04aa84e6d0aede225fc38584447124ca191540febdd9b",
        "8bb9a63b39108ed665efcee571c62eb376c473d1c16f7e9c739a1d5d2167f2be",
    ),
    ("random-2", 64, "keystream", True): (
        "29e623d2dccfec826123f74a7099b74fc43df17bd26bc611b6141347f34a43b4",
        "76618a6a4954563cbd007abe2294f5b9b27478c8e64ab0cdf2857edfd3307915",
    ),
    ("random-2", 64, "literal", False): (
        "c73a68e5c934a3f290fb0fc895f01a7ce598a971d54723664bfdc253e63551de",
        "5edd1f77ba4a7a9b02e5536310cd3ed2d685c067f0eb21b2394ae187ecb32586",
    ),
    ("random-2", 64, "literal", True): (
        "43085c637efffcdde6259221a9e5d4ee5871d68ab1ce5473635df659fc53db48",
        "7a55dcbe78482414b8a7b92268abf9eff30e0887d3bd7ce0b251bdf59e46b141",
    ),
    ("random-2", 256, "keystream", False): (
        "a0776aba3077e7627ec01e2a37f8c4f5bbc7fa884f57b28c57f4b23cbb1e6c45",
        "311ea2f7943d3b0ed5350f4275534e01ffa136c4806c31f5f8879d8241d7c1f0",
    ),
    ("random-2", 256, "keystream", True): (
        "381f7979e45d98065f86dfc05820cd04b76a9ed8e31bc318036bf6c1b9fdf483",
        "06bbaacda851f439017107be15394c980695ccb0b51f25969e5274ec8b4b7726",
    ),
    ("random-2", 256, "literal", False): (
        "db93649c3c398b10004d53c8515de5a1e5d3f524c5c3b690ae7e51ebdda3e5fa",
        "a87b5db007a3e2f35915a24103d70abd856eee4dda429f2954e3fcf1a1e9f900",
    ),
    ("random-2", 256, "literal", True): (
        "8f4a7ae1f5083d16b66fb05e4b919e7bceab3c0710f58f274c16b57baf61fa50",
        "d2a8d61c93ecd1b89ab2f6404fc20124360f877b21b4a53aa48ef10f22e68610",
    ),
}


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.uint8).tobytes()).hexdigest()


def make_key(name, request):
    """The default fixture key, or random-<seed> from random_key_schedule."""
    if name == "default":
        return request.getfixturevalue("default_keystream_key")
    seed = int(name.split("-")[1])
    return random_key_schedule(np.random.default_rng(seed))


def case_id(case):
    name, n, mode, normalized = case
    return f"{name}-{n}-{mode}-{'normalized' if normalized else 'raw'}"


def test_first_lambdas():
    stream = LambdaStream(ref.REFERENCE_PARAMS, 64)
    assert [next(stream).hex() for _ in range(32)] == LAMBDAS_HEX


@pytest.mark.parametrize("name,n", sorted(KEYSTREAM))
def test_keystream_image(name, n, request):
    ks = make_key(name, request)
    assert sha256(keystream_image(ks, n)) == KEYSTREAM[name, n]


@pytest.mark.parametrize("case", sorted(CASES), ids=case_id)
def test_mask_and_ciphertext(case, request):
    name, n, mode, normalized = case
    ks = replace(make_key(name, request), mode=mode, normalized=normalized)
    plain = synthetic_test_image(n)
    source = keystream_image(ks, n) if mode == "keystream" else plain
    mask_digest, cipher_digest = CASES[case]
    assert sha256(quantize(chaotic_image(source, ks))) == mask_digest
    assert sha256(encrypt(plain, ks)) == cipher_digest


def spec_checked(key):
    """Whether the specification recomputes a case: every one at n = 8 and
    64, and the default key's at 256."""
    name, n = key[:2]
    return n <= 64 or name == "default"


@pytest.mark.parametrize("name,n", [k for k in sorted(KEYSTREAM) if spec_checked(k)])
def test_specification_keystream_image(name, n, request):
    ks = make_key(name, request)
    assert sha256(ref.keystream_image(ks, n)) == KEYSTREAM[name, n]


@pytest.mark.parametrize("case", [c for c in sorted(CASES) if spec_checked(c)], ids=case_id)
def test_specification_mask_and_ciphertext(case, request):
    name, n, mode, normalized = case
    ks = replace(make_key(name, request), mode=mode, normalized=normalized)
    plain = synthetic_test_image(n)
    cipher_bytes = ref.encrypt(plain, ks)
    mask_digest, cipher_digest = CASES[case]
    assert sha256(cipher_bytes ^ plain) == mask_digest  # the mask, XORed back out
    assert sha256(cipher_bytes) == cipher_digest
