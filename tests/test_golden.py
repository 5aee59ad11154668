"""Golden outputs: the bytes every renderer and `to_json` of the rings,
the module sums and the inverse Chevalley sums print through the CLI.

The digests were recorded before the term-map classes shared one kernel;
any change to a renderer's text, term order or JSON layout shows here.
"""

import contextlib
import hashlib
import io

import pytest

from qkc.cli import main

GOLDEN = [
    # exact mode: fractions print unreduced, e.g.
    # ((1) + (-2)*Q1 + Q1^2)*z1*z2^-1
    (["show", "f", "--n", "2", "--l", "2"],
     "182ce75bc47d9ca0ddc15221f756e92e9848585aaa26bf8ba7921d46774e70c5"),
    (["show", "f", "--n", "3", "--l", "2", "--trunc", "8", "--json"],
     "5940742148cdf68a6446f1e6c9541b47334baa0860c6a768b9fe505f09382f10"),
    (["show", "ff", "--n", "2", "--l", "2", "--trunc", "4"],
     "58a1a9ef03f94f3900d80f6b0a529ddc06c64f585b928455f852eb5423cfb93f"),
    (["show", "ff", "--n", "3", "--l", "2", "--variant", "1bar"],
     "7b2402e58cdf449442bb15159c5019e2ea8e394b435588cffd58f2c2fee16f49"),
    (["show", "ideal", "--n", "2"],
     "90a77f3de2e152e1d2606978b3cb7f3b0937797099074f179808c29d7b03124b"),
    (["show", "schubert", "--n", "3", "--variant", "2bar", "--json"],
     "096fc88944991cd002a0b953bd860842ffc7e1b883c11621d3b745306b727c75"),
    (["ic", "--w", "[-2,1]", "--m", "1"],
     "2baced42d0e383f87baf166defaa19120291ee9be5cdad59984aad43f59f5980"),
    (["ic", "--w", "[-2,1]", "--m", "1", "--json"],
     "c2feacf6c9599c8ae09fef853a4a3ab421823ec151d35dc12a34bc7deb921c33"),
    (["solve-system", "--n", "3", "--json"],
     "f09a76ad296e9da7350c482875cd4f9bcbc249e0220dfb9803b8854f92841206"),
    (["verify", "--n", "3", "--suite", "all", "--json"],
     "97201fe5650cdab939ea573301d3104087eca278b6edce3186bbe54928b97b62"),
    (["verify", "--n", "3", "--suite", "all", "--json", "--mode", "exact"],
     "ef94bfc094651bddc0d4aa207aad6c7837f9a8a7c5bd2a2424148ce94f626518"),
    # the three reports the benchmark gates on, with its digests
    (["verify", "--n", "4", "--suite", "all", "--mode", "truncated", "--json"],
     "dd4c84e65f4a492409dec2812d0ab917d133f2a048b614fc82618da047ee8cac"),
    (["verify", "--n", "4", "--suite", "all", "--mode", "exact", "--json"],
     "aa1f9d61ac6dcbd026cdf6e60d4ac9cb74026e4cfe2a6656bb89cdec9ba444e3"),
    (["verify", "--n", "5", "--suite", "qbg,alcove,ic", "--json"],
     "e8c7e96dd6b6e15cd66cbafba695acc2a91f1ed3b76f007cf54df4435226e22f"),
    # rank 5 for the relation tuples and the recursion steps, recorded
    # before RelationVector and SemiModElement.shift were removed
    (["verify", "--n", "5", "--suite", "semimod,relations", "--json"],
     "a5df7e281304c41d3c164b7b76a89f184ee310d167a7b18ed07ea5e0512d88a1"),
    (["verify", "--n", "5", "--suite", "semimod,relations", "--json",
      "--mode", "exact"],
     "cc2ade006528821dc9ca190b907e5512aefebd24ea9e5806ea2e21b7133fa261"),
    # rank 5 for the factor products and verdicts, recorded before they
    # were kept per sequence of factor objects
    (["verify", "--n", "5", "--suite", "qkpres", "--json"],
     "e78cf8aa980b5eb4675af512477be640c2e7e250dded402b4cae0fe73973d629"),
    (["verify", "--n", "5", "--suite", "qkpres", "--json", "--mode", "exact"],
     "f01990972ccfc4a61e67ec54581926a3af0fbff31520a32ae2dd27ee3f82145f"),
    # recorded before build_graph lost its classifier argument
    (["qbg", "export", "--n", "2", "--format", "dot"],
     "6be14fcda25795fa6998d1ee53349d1357e5d19f7f6f95f63377742506915b8f"),
    (["qbg", "export", "--n", "2", "--format", "json"],
     "13bf96c97bed654ac18efccd2682dec0956c06bf9a5885decfd47fbedbf5d3ae"),
    (["alcove", "list", "--w", "[2,-1]", "--seq", "gamma:1", "--json"],
     "155541ede71fb3c366d022d4bfb5f125710c7dc6d279527d69b1add6cb6f2c3f"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_matches_golden_digest(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
