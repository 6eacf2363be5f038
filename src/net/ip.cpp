#include "net/ip.hpp"

#include "util/strings.hpp"

namespace harmless::net {

namespace {

/// Folded one's-complement checksum of `data`'s big-endian 16-bit words
/// added onto `sum` (an odd trailing byte is padded with zero).
std::uint16_t checksum_from(std::uint32_t sum, BytesView data) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) sum += rd16(data, i);
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;  // odd trailing byte
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

std::uint16_t internet_checksum(BytesView data) { return checksum_from(0, data); }

std::uint16_t l4_checksum(Ipv4Addr src, Ipv4Addr dst, IpProto proto, BytesView l4_segment) {
  // The 12-byte pseudo-header (src, dst, zero, proto, L4 length) is
  // even-sized, so its words simply add in ahead of the segment's —
  // no buffer needed.
  const std::uint32_t pseudo = (src.value() >> 16) + (src.value() & 0xffff) +
                               (dst.value() >> 16) + (dst.value() & 0xffff) +
                               static_cast<std::uint8_t>(proto) +
                               static_cast<std::uint16_t>(l4_segment.size());
  return checksum_from(pseudo, l4_segment);
}

std::optional<Ipv4Header> Ipv4Header::parse(BytesView payload) {
  if (payload.size() < kIpv4HeaderSize) return std::nullopt;
  const std::uint8_t version = payload[0] >> 4;
  const std::uint8_t ihl = payload[0] & 0x0f;
  if (version != 4 || ihl < 5) return std::nullopt;
  // No options supported: a larger ihl would shift L4 offsets.
  if (ihl != 5) return std::nullopt;
  if (internet_checksum(payload.subspan(0, kIpv4HeaderSize)) != 0) return std::nullopt;

  Ipv4Header header;
  header.dscp = payload[1] >> 2;
  header.total_length = rd16(payload, 2);
  header.identification = rd16(payload, 4);
  header.ttl = payload[8];
  header.protocol = payload[9];
  header.src = Ipv4Addr(rd32(payload, 12));
  header.dst = Ipv4Addr(rd32(payload, 16));
  if (header.total_length < kIpv4HeaderSize) return std::nullopt;
  return header;
}

Bytes Ipv4Header::serialize() const {
  Bytes out;
  out.reserve(kIpv4HeaderSize);
  put8(out, 0x45);  // version 4, ihl 5
  put8(out, static_cast<std::uint8_t>(dscp << 2));
  put16(out, total_length);
  put16(out, identification);
  put16(out, 0x4000);  // flags: DF, no fragmentation modelled
  put8(out, ttl);
  put8(out, protocol);
  put16(out, 0);  // checksum placeholder
  put32(out, src.value());
  put32(out, dst.value());
  const std::uint16_t checksum = internet_checksum(out);
  wr16(std::span<std::uint8_t>(out.data(), out.size()), 10, checksum);
  return out;
}

std::string Ipv4Header::to_string() const {
  return util::format("ip %s > %s proto=%u ttl=%u len=%u", src.to_string().c_str(),
                      dst.to_string().c_str(), protocol, ttl, total_length);
}

}  // namespace harmless::net
