"""Tests for the SMTP grammar: replies, commands, paths, dot-stuffing."""

import pytest

from repro.smtp import protocol
from repro.smtp.errors import SmtpProtocolError
from repro.smtp.protocol import (
    REPLY_MEMO_LIMIT,
    Mailbox,
    Reply,
    dot_stuff,
    dot_unstuff,
    parse_command,
    parse_path,
)


class TestReply:
    def test_single_line(self):
        reply = Reply(250, "OK")
        assert reply.to_bytes() == b"250 OK\r\n"

    def test_multiline_uses_dash_separator(self):
        reply = Reply(250, ["mx.example.com", "SIZE 100", "8BITMIME"])
        assert reply.to_bytes() == b"250-mx.example.com\r\n250-SIZE 100\r\n250 8BITMIME\r\n"

    def test_roundtrip(self):
        original = Reply(550, ["rejected", "for policy reasons"])
        assert Reply.from_bytes(original.to_bytes()) == original

    def test_classification(self):
        assert Reply(250, "x").is_success
        assert Reply(354, "x").is_intermediate
        assert Reply(451, "x").is_transient_failure
        assert Reply(550, "x").is_permanent_failure

    def test_code_range_enforced(self):
        with pytest.raises(SmtpProtocolError):
            Reply(199, "x")
        with pytest.raises(SmtpProtocolError):
            Reply(600, "x")

    def test_malformed_bytes_rejected(self):
        with pytest.raises(SmtpProtocolError):
            Reply.from_bytes(b"not a reply\r\n")
        with pytest.raises(SmtpProtocolError):
            Reply.from_bytes(b"")

    def test_inconsistent_multiline_rejected(self):
        with pytest.raises(SmtpProtocolError):
            Reply.from_bytes(b"250-a\r\n550 b\r\n")

    def test_text_joins_lines(self):
        assert Reply(250, ["a", "b"]).text == "a b"


class TestReplyMemo:
    def test_memoised_parse_equals_fresh_parse(self):
        data = b"250-mx.example\r\n250-8BITMIME\r\n250 SIZE 10485760\r\n"
        first = Reply.from_bytes(data)
        assert Reply.from_bytes(data) == first
        assert protocol._decode_reply.__wrapped__(data) == first

    def test_failures_are_never_cached(self):
        data = b"2x0 nope\r\n"
        for _ in range(2):
            with pytest.raises(SmtpProtocolError):
                Reply.from_bytes(data)

    def test_tables_stay_bounded(self):
        for index in range(REPLY_MEMO_LIMIT + 100):
            reply = Reply(250, "OK %d" % index)
            assert Reply.from_bytes(reply.to_bytes()) == reply
        for table in (protocol._encode_reply, protocol._decode_reply):
            info = table.cache_info()
            assert info.maxsize == REPLY_MEMO_LIMIT
            assert info.currsize <= REPLY_MEMO_LIMIT


class TestCommand:
    def test_verb_uppercased(self):
        command = parse_command("mail FROM:<a@b.c>")
        assert command.verb == "MAIL"
        assert command.argument == "FROM:<a@b.c>"

    def test_bare_verb(self):
        command = parse_command("QUIT\r\n")
        assert command.verb == "QUIT"
        assert command.argument == ""

    def test_empty_line_rejected(self):
        with pytest.raises(SmtpProtocolError):
            parse_command("\r\n")

    def test_to_line(self):
        assert parse_command("EHLO host").to_line() == "EHLO host"


class TestMailbox:
    def test_parse(self):
        mailbox = Mailbox.parse("user@example.com")
        assert mailbox.local == "user"
        assert mailbox.domain == "example.com"
        assert mailbox.address == "user@example.com"

    def test_local_part_may_contain_at_in_quotes(self):
        mailbox = Mailbox.parse("a@b@example.com")
        assert mailbox.domain == "example.com"

    def test_missing_at_rejected(self):
        with pytest.raises(SmtpProtocolError):
            Mailbox.parse("nodomain")

    def test_empty_parts_rejected(self):
        with pytest.raises(SmtpProtocolError):
            Mailbox.parse("@example.com")
        with pytest.raises(SmtpProtocolError):
            Mailbox.parse("user@")


class TestPath:
    def test_standard_path(self):
        mailbox = parse_path("FROM:<user@example.com>", "FROM")
        assert mailbox.address == "user@example.com"

    def test_case_insensitive_keyword(self):
        assert parse_path("from:<u@d.com>", "FROM").address == "u@d.com"

    def test_null_path(self):
        assert parse_path("FROM:<>", "FROM") is None

    def test_esmtp_parameters_ignored(self):
        mailbox = parse_path("FROM:<u@d.com> SIZE=1000 BODY=8BITMIME", "FROM")
        assert mailbox.address == "u@d.com"

    def test_tolerates_missing_brackets(self):
        assert parse_path("TO:u@d.com", "TO").address == "u@d.com"

    def test_source_route_stripped(self):
        mailbox = parse_path("TO:<@relay.example:user@d.com>", "TO")
        assert mailbox.address == "user@d.com"

    def test_wrong_keyword_rejected(self):
        with pytest.raises(SmtpProtocolError):
            parse_path("FROM:<u@d.com>", "TO")

    def test_unterminated_bracket_rejected(self):
        with pytest.raises(SmtpProtocolError):
            parse_path("TO:<u@d.com", "TO")


class TestDotStuffing:
    def test_stuff_and_unstuff(self):
        body = ".leading\r\nnormal\r\n..already"
        stuffed = dot_stuff(body)
        assert stuffed == "..leading\r\nnormal\r\n...already"
        assert dot_unstuff(stuffed) == body

    def test_plain_text_unchanged(self):
        assert dot_stuff("hello\r\nworld") == "hello\r\nworld"
