import random
from dataclasses import replace

import pytest

from comit.chainlab import (
    HashFnId,
    HashLock,
    HtlcScript,
    KeyPair,
    Multisig2of2,
    Or,
    PayToKey,
    ScriptContext,
    TimeLockRel,
    Witness,
    hash_digest,
    script_bytes,
    verify_script,
)
from comit.channels import ChannelParty
from comit.crp import NodeKey

DIGEST = b"\x11" * 32


def ctx(height=100, conf=0):
    return ScriptContext(
        current_height=height, input_confirmation_height=conf, tx_digest=DIGEST
    )


@pytest.fixture
def keys(rng):
    return KeyPair.generate(rng), KeyPair.generate(rng), KeyPair.generate(rng)


def test_pay_to_key(keys):
    a, b, _ = keys
    script = PayToKey(a.pubkey)
    assert verify_script(script, Witness(signatures=(a.sign(DIGEST),)), ctx())
    assert not verify_script(script, Witness(signatures=(b.sign(DIGEST),)), ctx())
    assert not verify_script(script, Witness(), ctx())
    # signature over a different digest does not transfer
    other = a.sign(b"\x22" * 32)
    assert not verify_script(script, Witness(signatures=(other,)), ctx())


def test_signature_verifies_only_with_the_key_that_made_it(keys):
    """A signature carries its signer. One relabelled with the named pubkey,
    one carrying another signer, and one whose MAC was changed are refused."""
    a, b, _ = keys
    script = PayToKey(a.pubkey)
    good = a.sign(DIGEST)
    assert verify_script(script, Witness(signatures=(good,)), ctx())
    relabelled = replace(b.sign(DIGEST), pubkey=a.pubkey)
    borrowed = replace(good, _signer=b)
    tampered = replace(good, mac=bytes(32))
    for bad in (relabelled, borrowed, tampered):
        assert not verify_script(script, Witness(signatures=(bad,)), ctx())
    assert good.verifies(a.pubkey, DIGEST)
    assert not good.verifies(b.pubkey, DIGEST)


def test_signature_neither_shows_nor_compares_its_signer(keys, rng):
    """The signer a signature carries stays out of its repr, and of the
    reprs of what holds it, and out of equality and hashing: a signature
    carrying another signer compares and hashes equal, and still fails."""
    a, b, _ = keys
    na, nb = NodeKey.generate(rng), NodeKey.generate(rng)
    for signer, other, secret in ((a, b, a.secret), (na, nb, na.secret)):
        sig = signer.sign(DIGEST)
        for text in (repr(sig), repr(Witness(signatures=(sig,)))):
            assert repr(secret) not in text and secret.hex() not in text, text
            assert "KeyPair" not in text and "NodeKey" not in text, text
        borrowed = replace(sig, _signer=other)
        assert borrowed == sig and hash(borrowed) == hash(sig)
        assert sig.verifies(signer.pubkey, DIGEST)
        assert not borrowed.verifies(signer.pubkey, DIGEST)


def test_keys_and_channel_parties_keep_their_secrets_out_of_their_reprs(keys, rng):
    """A wallet key, a node key and a channel party show their pubkeys in
    their reprs, but neither the bytes nor the hex of any secret."""
    wallet, node = keys[0], NodeKey.generate(rng)
    party = ChannelParty(wallet, rng.randbytes(32))
    for held, secrets in ((wallet, [wallet.secret]), (node, [node.secret]),
                          (party, [wallet.secret, party.revocation_seed])):
        text = repr(held)
        assert held.pubkey.hex() in text or repr(held.pubkey) in text, text
        for secret in secrets:
            assert repr(secret) not in text and secret.hex() not in text, text


def test_multisig_needs_both(keys):
    a, b, c = keys
    script = Multisig2of2(a.pubkey, b.pubkey)
    both = Witness(signatures=(a.sign(DIGEST), b.sign(DIGEST)))
    assert verify_script(script, both, ctx())
    assert not verify_script(script, Witness(signatures=(a.sign(DIGEST),)), ctx())
    wrong = Witness(signatures=(a.sign(DIGEST), c.sign(DIGEST)))
    assert not verify_script(script, wrong, ctx())
    with pytest.raises(ValueError):
        Multisig2of2(a.pubkey, a.pubkey)


def test_hashlock(keys):
    a, b, _ = keys
    preimage = b"seekrit" + b"\x00" * 25
    for fn in HashFnId:
        script = HashLock(fn, hash_digest(fn, preimage), a.pubkey)
        good = Witness(signatures=(a.sign(DIGEST),), preimages=(preimage,))
        assert verify_script(script, good, ctx())
        # preimages are matched by content, extras are fine
        extra = Witness(
            signatures=(a.sign(DIGEST),), preimages=(b"junk", preimage)
        )
        assert verify_script(script, extra, ctx())
        assert not verify_script(
            script, Witness(signatures=(a.sign(DIGEST),), preimages=(b"junk",)), ctx()
        )
        assert not verify_script(script, Witness(preimages=(preimage,)), ctx())
        bad_signer = Witness(signatures=(b.sign(DIGEST),), preimages=(preimage,))
        assert not verify_script(script, bad_signer, ctx())


def test_timelock_rel(keys):
    a, _, _ = keys
    script = TimeLockRel(10, a.pubkey)
    w = Witness(signatures=(a.sign(DIGEST),))
    assert not verify_script(script, w, ctx(height=109, conf=100))
    assert verify_script(script, w, ctx(height=110, conf=100))


def test_htlc_branches(keys):
    claimer, refunder, _ = keys
    preimage = b"p" * 32
    script = HtlcScript(
        HashFnId.SHA256,
        hash_digest(HashFnId.SHA256, preimage),
        claimer.pubkey,
        refunder.pubkey,
        refund_height=120,
    )
    claim = Witness(signatures=(claimer.sign(DIGEST),), preimages=(preimage,))
    refund = Witness(signatures=(refunder.sign(DIGEST),))
    # claim works at any height, including after expiry
    assert verify_script(script, claim, ctx(height=1))
    assert verify_script(script, claim, ctx(height=500))
    # refund only once the chain reaches refund_height
    assert not verify_script(script, refund, ctx(height=119))
    assert verify_script(script, refund, ctx(height=120))
    # refund signature cannot claim and vice versa
    bad_claim = Witness(signatures=(refunder.sign(DIGEST),), preimages=(preimage,))
    assert verify_script(script, bad_claim, ctx(height=119)) is False
    assert not verify_script(
        script, Witness(signatures=(claimer.sign(DIGEST),)), ctx(height=500)
    )


def test_or_branch_selection(keys):
    a, b, _ = keys
    script = Or(PayToKey(a.pubkey), PayToKey(b.pubkey))
    sig_a, sig_b = a.sign(DIGEST), b.sign(DIGEST)
    assert verify_script(script, Witness(signatures=(sig_a,), branch_selector=0), ctx())
    assert verify_script(script, Witness(signatures=(sig_b,), branch_selector=1), ctx())
    # the selected branch must verify; the other one doesn't count
    assert not verify_script(
        script, Witness(signatures=(sig_a,), branch_selector=1), ctx()
    )
    # no selector, no spend
    assert not verify_script(script, Witness(signatures=(sig_a, sig_b)), ctx())


def test_or_nesting_capped(keys):
    a, b, _ = keys
    inner = Or(PayToKey(a.pubkey), PayToKey(b.pubkey))
    with pytest.raises(ValueError):
        Or(inner, PayToKey(a.pubkey))
    with pytest.raises(ValueError):
        Or(PayToKey(a.pubkey), inner)


def test_evaluation_is_pure(rng):
    # Same (script, witness, context) triple always gives the same answer.
    keys = [KeyPair.generate(rng) for _ in range(3)]
    preimage = rng.randbytes(32)
    scripts = [
        PayToKey(keys[0].pubkey),
        TimeLockRel(50, keys[1].pubkey),
        HtlcScript(
            HashFnId.SHA3_256,
            hash_digest(HashFnId.SHA3_256, preimage),
            keys[0].pubkey,
            keys[1].pubkey,
            60,
        ),
        Or(TimeLockRel(5, keys[2].pubkey), PayToKey(keys[0].pubkey)),
    ]
    check = random.Random(7)
    for _ in range(200):
        script = scripts[check.randrange(len(scripts))]
        sigs = tuple(
            keys[i].sign(DIGEST) for i in range(3) if check.random() < 0.5
        )
        w = Witness(
            signatures=sigs,
            preimages=(preimage,) if check.random() < 0.5 else (),
            branch_selector=check.choice([None, 0, 1]),
        )
        c = ctx(height=check.randrange(0, 100), conf=check.choice([0, 10, 40]))
        first = verify_script(script, w, c)
        for _ in range(3):
            assert verify_script(script, w, c) == first


def test_script_bytes_injective_for_distinct_scripts(rng):
    keys = [KeyPair.generate(rng) for _ in range(2)]
    pre = rng.randbytes(32)
    h = hash_digest(HashFnId.SHA256, pre)
    scripts = [
        PayToKey(keys[0].pubkey),
        PayToKey(keys[1].pubkey),
        Multisig2of2(keys[0].pubkey, keys[1].pubkey),
        HashLock(HashFnId.SHA256, h, keys[0].pubkey),
        HashLock(HashFnId.SHA3_256, h, keys[0].pubkey),
        TimeLockRel(7, keys[0].pubkey),
        HtlcScript(HashFnId.SHA256, h, keys[0].pubkey, keys[1].pubkey, 7),
        Or(PayToKey(keys[0].pubkey), PayToKey(keys[1].pubkey)),
        Or(PayToKey(keys[1].pubkey), PayToKey(keys[0].pubkey)),
    ]
    blobs = [script_bytes(s) for s in scripts]
    assert len(set(blobs)) == len(blobs)
