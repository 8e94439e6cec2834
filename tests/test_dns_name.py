"""Tests for the domain-name type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.errors import EmptyLabel, NameError_, NameTooLong, NonAsciiLabel
from repro.dns.name import Name, root


class TestConstruction:
    def test_from_string(self):
        assert Name("foo.example.com").labels == ("foo", "example", "com")

    def test_trailing_dot_ignored(self):
        assert Name("example.com.") == Name("example.com")

    def test_root_forms(self):
        assert Name("").is_root()
        assert Name(".").is_root()
        assert root.is_root()

    def test_from_labels(self):
        assert Name(("a", "b")) == Name("a.b")

    def test_copy_constructor(self):
        original = Name("x.y")
        assert Name(original) == original

    def test_empty_interior_label_rejected(self):
        with pytest.raises(EmptyLabel):
            Name("a..b")

    def test_long_label_rejected(self):
        with pytest.raises(NameTooLong):
            Name("a" * 64 + ".com")

    def test_63_octet_label_accepted(self):
        assert len(Name("a" * 63 + ".com").labels[0]) == 63

    def test_long_name_rejected(self):
        with pytest.raises(NameTooLong):
            Name(".".join(["abcdefg"] * 40))


class TestSemantics:
    def test_case_insensitive_equality(self):
        assert Name("Foo.Example.COM") == Name("foo.example.com")

    def test_case_preserved_for_presentation(self):
        assert str(Name("Foo.COM")) == "Foo.COM."

    def test_hash_matches_equality(self):
        assert hash(Name("A.B")) == hash(Name("a.b"))

    def test_string_comparison(self):
        assert Name("a.b") == "a.b"

    def test_subdomain(self):
        assert Name("mail.example.com").is_subdomain_of(Name("example.com"))
        assert Name("example.com").is_subdomain_of(Name("example.com"))
        assert not Name("example.com").is_subdomain_of(Name("mail.example.com"))
        assert not Name("badexample.com").is_subdomain_of(Name("example.com"))

    def test_everything_under_root(self):
        assert Name("x.y").is_subdomain_of(root)

    def test_parent_and_child(self):
        name = Name("a.b.c")
        assert name.parent() == Name("b.c")
        assert Name("b.c").child("a") == name

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            root.parent()

    def test_relativize(self):
        assert Name("t01.m1.spf.example").relativize(Name("spf.example")) == ("t01", "m1")

    def test_relativize_outside_suffix(self):
        with pytest.raises(ValueError):
            Name("a.other.com").relativize(Name("example.com"))

    def test_canonical_ordering_right_to_left(self):
        assert Name("a.example.com") < Name("b.example.com")
        assert Name("z.alpha.com") < Name("a.beta.com")

    def test_to_text(self):
        assert Name("a.b").to_text() == "a.b."
        assert Name("a.b").to_text(omit_final_dot=True) == "a.b"
        assert root.to_text(omit_final_dot=True) == "."


_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1,
    max_size=20,
)


@given(st.lists(_label, min_size=0, max_size=6))
def test_name_string_roundtrip(labels):
    name = Name(labels)
    assert Name(str(name)) == name


@given(st.lists(_label, min_size=1, max_size=4), st.lists(_label, min_size=0, max_size=3))
def test_child_is_subdomain(suffix_labels, prefix_labels):
    suffix = Name(suffix_labels)
    child = Name(tuple(prefix_labels) + tuple(suffix_labels))
    assert child.is_subdomain_of(suffix)
    assert child.relativize(suffix) == tuple(prefix_labels)


# Labels as the wire decoder yields them: 1-63 ASCII octets, any casing,
# dots and control characters included.
_wire_label = st.text(alphabet=st.characters(max_codepoint=127), min_size=1, max_size=63)


@given(st.lists(_wire_label, max_size=8))
def test_trusted_constructor_agrees_with_validating_one(labels):
    labels = tuple(labels)
    try:
        checked = Name(labels)
    except NameTooLong:
        with pytest.raises(NameTooLong):
            Name.trusted(labels)
        assert sum(len(label) + 1 for label in labels) + 1 > 255
        return
    trusted = Name.trusted(labels)
    assert trusted.labels == checked.labels
    assert trusted.key == checked.key
    assert hash(trusted) == hash(checked)
    assert trusted == checked


def test_copy_shares_labels_and_key():
    name = Name("Mixed.Case.Example")
    copy = Name(name)
    assert copy.key is name.key
    assert copy.labels is name.labels


class TestForeignText:
    def test_invalid_text_compares_unequal(self):
        assert not Name("a.b") == "a..b"
        assert not Name("a.b") == "x" * 70
        assert Name("a.b") != "é.b"

    def test_non_ascii_label_is_a_name_error(self):
        with pytest.raises(NonAsciiLabel):
            Name("é.b")
        with pytest.raises(NameError_):
            Name(("b", "é"))
