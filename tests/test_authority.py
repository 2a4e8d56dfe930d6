"""Authority state tests: ownership, delegation, revocation (section 3.2)."""

import pytest

from repro.core import AuthorityState, IFCProcess, Label, SeededIdGenerator
from repro.errors import AuthorityError, IFCViolation, UnknownPrincipalError


@pytest.fixture
def world(authority):
    alice = authority.create_principal("alice")
    bob = authority.create_principal("bob")
    carol = authority.create_principal("carol")
    tag = authority.create_tag("alice_data", owner=alice.id)
    return authority, alice, bob, carol, tag


class TestOwnership:
    def test_owner_has_authority(self, world):
        authority, alice, bob, _carol, tag = world
        assert authority.has_authority(alice.id, tag.id)
        assert not authority.has_authority(bob.id, tag.id)

    def test_check_authority_raises_with_names(self, world):
        authority, _alice, bob, _carol, tag = world
        with pytest.raises(AuthorityError, match="bob"):
            authority.check_authority(bob.id, tag.id)

    def test_any_principal_can_create_a_tag(self, world):
        authority, _alice, bob, _c, _t = world
        tag = authority.create_tag("bobs", owner=bob.id)
        assert authority.has_authority(bob.id, tag.id)

    def test_unknown_principal_rejected(self, authority):
        with pytest.raises(UnknownPrincipalError):
            authority.create_tag("x", owner=424242)

    def test_process_rejects_principal_object(self, authority):
        alice = authority.create_principal("alice")
        with pytest.raises(TypeError, match=r"principal .*not Principal"):
            IFCProcess(authority, alice)
        with pytest.raises(UnknownPrincipalError, match="424242"):
            IFCProcess(authority, 424242)


class TestDelegation:
    def test_delegate_grants_authority(self, world):
        authority, alice, bob, _c, tag = world
        authority.delegate(tag.id, alice.id, bob.id)
        assert authority.has_authority(bob.id, tag.id)

    def test_delegation_chains(self, world):
        authority, alice, bob, carol, tag = world
        authority.delegate(tag.id, alice.id, bob.id)
        authority.delegate(tag.id, bob.id, carol.id)
        assert authority.has_authority(carol.id, tag.id)

    def test_delegation_requires_grantor_authority(self, world):
        authority, _alice, bob, carol, tag = world
        with pytest.raises(AuthorityError):
            authority.delegate(tag.id, bob.id, carol.id)

    def test_revocation_is_transitive(self, world):
        authority, alice, bob, carol, tag = world
        authority.delegate(tag.id, alice.id, bob.id)
        authority.delegate(tag.id, bob.id, carol.id)
        authority.revoke(tag.id, alice.id, bob.id)
        assert not authority.has_authority(bob.id, tag.id)
        assert not authority.has_authority(carol.id, tag.id)

    def test_alternate_path_survives_revocation(self, world):
        authority, alice, bob, carol, tag = world
        authority.delegate(tag.id, alice.id, bob.id)
        authority.delegate(tag.id, alice.id, carol.id)
        authority.delegate(tag.id, bob.id, carol.id)
        authority.revoke(tag.id, alice.id, bob.id)
        assert authority.has_authority(carol.id, tag.id)   # direct path

    def test_revoking_nonexistent_grant_raises(self, world):
        authority, alice, bob, _c, tag = world
        with pytest.raises(AuthorityError):
            authority.revoke(tag.id, alice.id, bob.id)

    def test_version_bumps_on_mutation(self, world):
        authority, alice, bob, _c, tag = world
        before = authority.version
        authority.delegate(tag.id, alice.id, bob.id)
        assert authority.version > before


class TestEmptyLabelRule:
    """The authority state is an empty-labelled object (section 3.2)."""

    def test_contaminated_process_cannot_delegate(self, world):
        authority, alice, bob, _c, tag = world
        process = IFCProcess(authority, alice.id)
        process.add_secrecy(tag.id)
        with pytest.raises(IFCViolation):
            process.delegate(tag.id, bob.id)

    def test_clean_process_can_delegate_and_revoke(self, world):
        authority, alice, bob, _c, tag = world
        process = IFCProcess(authority, alice.id)
        process.delegate(tag.id, bob.id)
        assert authority.has_authority(bob.id, tag.id)
        process.revoke(tag.id, bob.id)
        assert not authority.has_authority(bob.id, tag.id)


class TestCompoundAuthority:
    def test_compound_authority_covers_members(self, authority):
        service = authority.create_principal("service")
        user = authority.create_principal("user")
        compound = authority.create_compound_tag("all", owner=service.id)
        member = authority.create_tag("user_tag", owner=user.id,
                                      compounds=(compound.id,),
                                      creator=service.id)
        assert authority.has_authority(service.id, member.id)
        assert not authority.has_authority(user.id, compound.id)

    def test_member_creation_requires_compound_authority(self, authority):
        service = authority.create_principal("service")
        rogue = authority.create_principal("rogue")
        compound = authority.create_compound_tag("all", owner=service.id)
        with pytest.raises(AuthorityError):
            authority.create_tag("sneaky", owner=rogue.id,
                                 compounds=(compound.id,))

    def test_delegated_compound_authority(self, authority):
        service = authority.create_principal("service")
        helper = authority.create_principal("helper")
        user = authority.create_principal("user")
        compound = authority.create_compound_tag("all", owner=service.id)
        member = authority.create_tag("m", owner=user.id,
                                      compounds=(compound.id,),
                                      creator=service.id)
        authority.delegate(compound.id, service.id, helper.id)
        assert authority.has_authority(helper.id, member.id)

    def test_label_helpers(self, authority):
        principal = authority.create_principal("p")
        t1 = authority.create_tag("t1", owner=principal.id)
        t2 = authority.create_tag("t2", owner=principal.id)
        label = authority.label_of("t1", "t2")
        assert label == Label([t1.id, t2.id])
        assert authority.describe_label(label) == ("t1", "t2")
