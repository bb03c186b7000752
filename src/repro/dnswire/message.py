"""DNS message model and codec (RFC 1035 section 4)."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.dnswire.edns import OptRecord
from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import Opcode, Rcode, RRClass, RRType
from repro.dnswire.records import ResourceRecord
from repro.dnswire.wire import WireReader, WireWriter
from repro.errors import WireFormatError

HEADER_LENGTH = 12


@dataclass(frozen=True)
class Flags:
    """The flag bits of a DNS header."""

    qr: bool = False
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False

    def to_bits(self) -> int:
        bits = 0
        if self.qr:
            bits |= 0x8000
        if self.aa:
            bits |= 0x0400
        if self.tc:
            bits |= 0x0200
        if self.rd:
            bits |= 0x0100
        if self.ra:
            bits |= 0x0080
        return bits

    @classmethod
    def from_bits(cls, bits: int) -> "Flags":
        return cls(
            qr=bool(bits & 0x8000),
            aa=bool(bits & 0x0400),
            tc=bool(bits & 0x0200),
            rd=bool(bits & 0x0100),
            ra=bool(bits & 0x0080),
        )


@dataclass(frozen=True)
class Header:
    """DNS header: identifier, opcode, flags and rcode."""

    msg_id: int = 0
    opcode: int = Opcode.QUERY
    flags: Flags = field(default_factory=Flags)
    rcode: int = Rcode.NOERROR


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    name: DnsName
    rrtype: int = RRType.A
    rrclass: int = RRClass.IN

    def encode(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        writer.write_u16(self.rrtype)
        writer.write_u16(self.rrclass)

    @classmethod
    def decode(cls, reader: WireReader) -> "Question":
        name = reader.read_name()
        rrtype = reader.read_u16()
        rrclass = reader.read_u16()
        return cls(name, rrtype, rrclass)

    def to_text(self) -> str:
        return (f"{self.name.to_text()} "
                f"{RRClass(self.rrclass).name if self.rrclass in tuple(RRClass) else self.rrclass} "
                f"{RRType.to_text(self.rrtype)}")


@dataclass(frozen=True)
class Message:
    """A complete DNS message."""

    header: Header = field(default_factory=Header)
    questions: Tuple[Question, ...] = ()
    answers: Tuple[ResourceRecord, ...] = ()
    authorities: Tuple[ResourceRecord, ...] = ()
    additionals: Tuple[ResourceRecord, ...] = ()
    opt: Optional[OptRecord] = None

    @property
    def question(self) -> Optional[Question]:
        """The first question, or None for header-only messages."""
        return self.questions[0] if self.questions else None

    def is_response(self) -> bool:
        return self.header.flags.qr

    def rcode(self) -> int:
        base = self.header.rcode
        if self.opt is not None:
            return (self.opt.extended_rcode << 4) | base
        return base

    def answer_addresses(self) -> Tuple[str, ...]:
        """All A/AAAA addresses from the answer section, in order."""
        addresses = []
        for record in self.answers:
            if record.rrtype in (RRType.A, RRType.AAAA):
                addresses.append(record.rdata.to_text())
        return tuple(addresses)

    def with_padding_to_block(self, block: int = 128) -> "Message":
        """Return a copy padded to a multiple of ``block`` octets."""
        from repro.dnswire.edns import PaddingOption
        if self.opt is not None:
            # Padding replaces any existing padding option, so the
            # baseline is this exact message.
            base_length = len(self.encode())
            opt = self.opt
        else:
            opt = OptRecord()
            base_length = len(replace(self, opt=opt).encode())
        padded_opt = opt.with_option(
            PaddingOption.pad_to_block(base_length, block))
        return replace(self, opt=padded_opt)

    def encode(self, compress: bool = True) -> bytes:
        writer = WireWriter(enable_compression=compress)
        flag_bits = self.header.flags.to_bits()
        flag_bits |= (self.header.opcode & 0xF) << 11
        flag_bits |= self.header.rcode & 0xF
        additional_count = len(self.additionals) + (1 if self.opt else 0)
        writer.write_bytes(struct.pack(
            "!HHHHHH", self.header.msg_id, flag_bits,
            len(self.questions), len(self.answers),
            len(self.authorities), additional_count,
        ))
        for question in self.questions:
            question.encode(writer)
        for record in self.answers + self.authorities + self.additionals:
            record.encode(writer)
        if self.opt is not None:
            self.opt.encode(writer)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        if len(data) < HEADER_LENGTH:
            raise WireFormatError(
                f"message shorter than header: {len(data)} octets")
        reader = WireReader(data)
        msg_id, flag_bits, qdcount, ancount, nscount, arcount = (
            struct.unpack_from("!HHHHHH", data, 0))
        reader.read_bytes(HEADER_LENGTH)
        header = Header(
            msg_id=msg_id,
            opcode=(flag_bits >> 11) & 0xF,
            flags=Flags.from_bits(flag_bits),
            rcode=flag_bits & 0xF,
        )
        questions = tuple(Question.decode(reader) for _ in range(qdcount))
        answers = tuple(ResourceRecord.decode(reader) for _ in range(ancount))
        authorities = tuple(ResourceRecord.decode(reader)
                            for _ in range(nscount))
        additionals = []
        opt = None
        for _ in range(arcount):
            mark = reader.offset
            name = reader.read_name()
            rrtype = reader.read_u16()
            if rrtype == RRType.OPT:
                if opt is not None:
                    raise WireFormatError("duplicate OPT record")
                if not name.is_root():
                    raise WireFormatError("OPT owner must be the root name")
                opt = OptRecord.decode_body(reader)
            else:
                inner = WireReader(data, mark)
                additionals.append(ResourceRecord.decode(inner))
                reader = inner
        return cls(header, questions, answers, authorities,
                   tuple(additionals), opt)

    def to_text(self) -> str:
        """Multi-line dig-style rendering, for logs and debugging."""
        lines = [
            f";; id {self.header.msg_id} opcode "
            f"{Opcode(self.header.opcode).name if self.header.opcode in tuple(Opcode) else self.header.opcode} "
            f"rcode {Rcode.to_text(self.rcode())}"
        ]
        if self.questions:
            lines.append(";; QUESTION")
            lines.extend("  " + question.to_text()
                         for question in self.questions)
        for title, section in (("ANSWER", self.answers),
                               ("AUTHORITY", self.authorities),
                               ("ADDITIONAL", self.additionals)):
            if section:
                lines.append(f";; {title}")
                lines.extend("  " + record.to_text() for record in section)
        if self.opt is not None:
            lines.append(f";; EDNS version {self.opt.version}, "
                         f"udp {self.opt.udp_payload}, "
                         f"padding {self.opt.padding_octets()}")
        return "\n".join(lines)
