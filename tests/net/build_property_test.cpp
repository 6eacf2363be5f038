// Property tests on the packet builders: every built frame must parse
// back to its FlowKey with valid checksums, across the whole size
// sweep the benchmarks use, and VLAN push/pop must be an identity.
#include <gtest/gtest.h>

#include "net/build.hpp"
#include "net/ip.hpp"
#include "net/parse.hpp"
#include "openflow/action.hpp"
#include "util/rng.hpp"

namespace harmless::net {
namespace {

class FrameSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameSizeProperty, UdpRoundTripsAtEverySize) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000011);
  key.eth_dst = MacAddr::from_u64(0x020000000022);
  key.ip_src = Ipv4Addr(172, 16, 5, 1);
  key.ip_dst = Ipv4Addr(172, 16, 5, 2);
  key.src_port = 5555;
  key.dst_port = 9000;

  const std::size_t size = GetParam();
  const Packet packet = make_udp(key, size);
  EXPECT_EQ(packet.size(), std::clamp<std::size_t>(size, kMinFrameSize, kMaxFrameSize));

  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.ipv4) << "size=" << size;
  ASSERT_TRUE(parsed.udp) << "size=" << size;
  EXPECT_EQ(parsed.eth_src, key.eth_src);
  EXPECT_EQ(parsed.eth_dst, key.eth_dst);
  EXPECT_EQ(parsed.ipv4->src, key.ip_src);
  EXPECT_EQ(parsed.ipv4->dst, key.ip_dst);
  EXPECT_EQ(parsed.src_port(), key.src_port);
  EXPECT_EQ(parsed.dst_port(), key.dst_port);
}

INSTANTIATE_TEST_SUITE_P(PaperSizeSweep, FrameSizeProperty,
                         ::testing::Values(60, 64, 128, 256, 512, 1024, 1500, 1518, 9000));

class VlanIdentityProperty : public ::testing::TestWithParam<int> {};

TEST_P(VlanIdentityProperty, PushPopIsIdentityForRandomPackets) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int iteration = 0; iteration < 50; ++iteration) {
    FlowKey key;
    key.eth_src = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
    key.eth_dst = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
    key.ip_src = Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    key.ip_dst = Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    key.src_port = static_cast<std::uint16_t>(rng.below(65536));
    key.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    Packet packet = make_udp(key, 64 + rng.below(1400));
    const Bytes original = packet.frame();

    const auto vid = static_cast<VlanId>(1 + rng.below(4094));
    vlan_push(packet.frame(), VlanTag{vid, 0, false});
    ASSERT_EQ(parse_packet(packet).vlan_vid(), vid);
    const auto popped = vlan_pop(packet.frame());
    ASSERT_TRUE(popped);
    EXPECT_EQ(popped->vid, vid);
    EXPECT_EQ(packet.frame(), original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VlanIdentityProperty, ::testing::Range(1, 6));

TEST(BuildProperty, UdpTemplateStampMatchesMakeUdpByteForByte) {
  // The template path (serialize once, stamp ports + incremental
  // checksum per packet) must be indistinguishable from a full
  // make_udp build — every byte, at every frame size the benches use,
  // across a port sweep that exercises checksum carry/fold edges.
  util::Rng rng(2024);
  for (const std::size_t size : {60UL, 64UL, 128UL, 512UL, 1500UL}) {
    FlowKey key;
    key.eth_src = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
    key.eth_dst = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
    key.ip_src = Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    key.ip_dst = Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    const UdpTemplate tmpl(key, size);
    for (int i = 0; i < 64; ++i) {
      key.src_port = static_cast<std::uint16_t>(rng.below(65536));
      key.dst_port = static_cast<std::uint16_t>(rng.below(65536));
      const Packet stamped = tmpl.stamp(key.src_port, key.dst_port);
      const Packet built = make_udp(key, size);
      ASSERT_EQ(Bytes(stamped.frame().begin(), stamped.frame().end()),
                Bytes(built.frame().begin(), built.frame().end()))
          << "size=" << size << " sport=" << key.src_port << " dport=" << key.dst_port;
    }
  }
}

TEST(BuildProperty, UdpTemplateStampHitsChecksumEdgeCases) {
  // Port pairs chosen to drive the incremental sum through 0xffff
  // folds and the RFC 768 zero-avoidance rule.
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000011);
  key.eth_dst = MacAddr::from_u64(0x020000000022);
  key.ip_src = Ipv4Addr(192, 168, 1, 1);
  key.ip_dst = Ipv4Addr(192, 168, 1, 2);
  const UdpTemplate tmpl(key, 64);
  const std::uint16_t ports[] = {0, 1, 0x7fff, 0x8000, 0xfffe, 0xffff};
  for (const std::uint16_t sport : ports) {
    for (const std::uint16_t dport : ports) {
      key.src_port = sport;
      key.dst_port = dport;
      const Packet stamped = tmpl.stamp(sport, dport);
      const Packet built = make_udp(key, 64);
      ASSERT_EQ(Bytes(stamped.frame().begin(), stamped.frame().end()),
                Bytes(built.frame().begin(), built.frame().end()))
          << "sport=" << sport << " dport=" << dport;
      const ParsedPacket parsed = parse_packet(stamped);
      ASSERT_TRUE(parsed.udp);
      EXPECT_EQ(parsed.src_port(), sport);
      EXPECT_EQ(parsed.dst_port(), dport);
    }
  }
}

TEST(BuildProperty, TcpTemplateStampMatchesMakeTcpByteForByte) {
  // Same contract as the UDP template: the stamped fast path must be
  // indistinguishable from a full make_tcp build, across flag sets,
  // payloads and a port sweep that exercises checksum carries.
  util::Rng rng(2025);
  const std::uint8_t flag_sets[] = {kTcpSyn, kTcpSyn | kTcpAck, kTcpAck, kTcpPsh | kTcpAck,
                                    kTcpFin | kTcpAck};
  for (const std::uint8_t flags : flag_sets) {
    FlowKey key;
    key.eth_src = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
    key.eth_dst = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
    key.ip_src = Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    key.ip_dst = Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    const std::string payload = (flags & kTcpPsh) != 0 ? "GET / HTTP/1.1\r\n\r\n" : "";
    const TcpTemplate tmpl(key, flags, payload);
    for (int i = 0; i < 64; ++i) {
      key.src_port = static_cast<std::uint16_t>(rng.below(65536));
      key.dst_port = static_cast<std::uint16_t>(rng.below(65536));
      const Packet stamped = tmpl.stamp(key.src_port, key.dst_port);
      const Packet built = make_tcp(key, flags, payload);
      ASSERT_EQ(Bytes(stamped.frame().begin(), stamped.frame().end()),
                Bytes(built.frame().begin(), built.frame().end()))
          << "flags=" << int(flags) << " sport=" << key.src_port << " dport=" << key.dst_port;
    }
  }
}

TEST(BuildProperty, TcpTemplateStampHitsChecksumEdgeCases) {
  // Unlike UDP, TCP has no zero-avoidance rule at the checksum field:
  // a sum that folds to 0xffff really is stored as ~0xffff == 0. The
  // port corners drive the incremental sum through both folds.
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000011);
  key.eth_dst = MacAddr::from_u64(0x020000000022);
  key.ip_src = Ipv4Addr(192, 168, 1, 1);
  key.ip_dst = Ipv4Addr(192, 168, 1, 2);
  const TcpTemplate tmpl(key, kTcpSyn);
  const std::uint16_t ports[] = {0, 1, 0x7fff, 0x8000, 0xfffe, 0xffff};
  for (const std::uint16_t sport : ports) {
    for (const std::uint16_t dport : ports) {
      key.src_port = sport;
      key.dst_port = dport;
      const Packet stamped = tmpl.stamp(sport, dport);
      const Packet built = make_tcp(key, kTcpSyn);
      ASSERT_EQ(Bytes(stamped.frame().begin(), stamped.frame().end()),
                Bytes(built.frame().begin(), built.frame().end()))
          << "sport=" << sport << " dport=" << dport;
      const ParsedPacket parsed = parse_packet(stamped);
      ASSERT_TRUE(parsed.tcp);
      EXPECT_EQ(parsed.src_port(), sport);
      EXPECT_EQ(parsed.dst_port(), dport);
      EXPECT_EQ(parsed.tcp->flags, kTcpSyn);
    }
  }
}

TEST(BuildProperty, TcpPayloadSurvivesChecksummedPath) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(1);
  key.eth_dst = MacAddr::from_u64(2);
  key.ip_src = Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = Ipv4Addr(10, 0, 0, 2);
  key.src_port = 1;
  key.dst_port = 2;
  const std::string body = "payload-with-\x01-binary";
  const Packet packet = make_tcp(key, kTcpPsh, body);
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.tcp);
  EXPECT_EQ(l4_payload(parsed, packet.frame()), body);
}

TEST(BuildProperty, ArpPairIsSymmetric) {
  const auto mac_a = MacAddr::from_u64(0xa), mac_b = MacAddr::from_u64(0xb);
  const Ipv4Addr ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  const Packet request = make_arp_request(mac_a, ip_a, ip_b);
  const ParsedPacket parsed_request = parse_packet(request);
  ASSERT_TRUE(parsed_request.arp);

  const Packet reply =
      make_arp_reply(mac_b, ip_b, parsed_request.arp->sender_mac, parsed_request.arp->sender_ip);
  const ParsedPacket parsed_reply = parse_packet(reply);
  ASSERT_TRUE(parsed_reply.arp);
  EXPECT_EQ(parsed_reply.arp->op, ArpOp::kReply);
  EXPECT_EQ(parsed_reply.arp->sender_ip, ip_b);
  EXPECT_EQ(parsed_reply.arp->target_ip, ip_a);
  EXPECT_EQ(parsed_reply.eth_dst, mac_a);  // unicast back
}

// ------------------------------------------------------ checksum paths

/// The original l4_checksum: copy the pseudo-header and the whole
/// segment into one buffer and checksum that.
std::uint16_t pseudo_copy_l4_checksum(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                                      BytesView segment) {
  Bytes pseudo;
  put32(pseudo, src.value());
  put32(pseudo, dst.value());
  put8(pseudo, 0);
  put8(pseudo, static_cast<std::uint8_t>(proto));
  put16(pseudo, static_cast<std::uint16_t>(segment.size()));
  pseudo.insert(pseudo.end(), segment.begin(), segment.end());
  return internet_checksum(pseudo);
}

TEST(ChecksumProperty, L4ChecksumMatchesPseudoHeaderCopyOnRandomSpans) {
  util::Rng rng(1624);
  for (int i = 0; i < 20000; ++i) {
    Bytes segment(rng.below(1601));  // odd lengths included
    for (std::uint8_t& byte : segment) byte = static_cast<std::uint8_t>(rng.below(256));
    // Mostly saturated bytes now and then: long carry chains in the fold.
    if (rng.chance(0.1)) std::fill(segment.begin(), segment.end(), 0xff);
    const Ipv4Addr src(static_cast<std::uint32_t>(rng.next()));
    const Ipv4Addr dst(static_cast<std::uint32_t>(rng.next()));
    const auto proto = static_cast<IpProto>(rng.below(256));
    ASSERT_EQ(l4_checksum(src, dst, proto, segment),
              pseudo_copy_l4_checksum(src, dst, proto, segment))
        << "case " << i << " length " << segment.size();
  }
}

/// A random IPv4 TCP or UDP frame, sometimes VLAN-tagged, with a wrong
/// or zero checksum, truncated below its IP total_length, or with a few
/// random bytes flipped (which can make it non-IPv4 or non-TCP/UDP).
Bytes random_l4_frame(util::Rng& rng) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
  key.eth_dst = MacAddr::from_u64(0x020000000000 | rng.below(1 << 20));
  key.ip_src = Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  key.ip_dst = Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  key.src_port = static_cast<std::uint16_t>(rng.below(65536));
  key.dst_port = static_cast<std::uint16_t>(rng.below(65536));
  const bool tcp = rng.chance(0.5);
  const Packet built = tcp ? make_tcp(key, kTcpAck, std::string(rng.below(300), 'x'))
                           : make_udp(key, 60 + rng.below(1459), static_cast<std::uint8_t>(rng.below(256)));
  Bytes frame = built.frame();
  if (rng.chance(0.3)) vlan_push(frame, VlanTag{static_cast<VlanId>(1 + rng.below(4094)), 0, false});
  const std::size_t l4 = (vlan_peek(frame) ? kEthHeaderSize + 4 : kEthHeaderSize) + kIpv4HeaderSize;
  const std::size_t checksum_at = l4 + (tcp ? 16 : 6);
  if (rng.chance(0.15) && checksum_at + 2 <= frame.size()) {
    frame[checksum_at] = static_cast<std::uint8_t>(rng.below(256));  // already wrong
    frame[checksum_at + 1] = static_cast<std::uint8_t>(rng.below(256));
  }
  if (!tcp && rng.chance(0.1)) frame[checksum_at] = frame[checksum_at + 1] = 0;  // "no checksum"
  if (rng.chance(0.25)) frame.resize(rng.below(frame.size() + 1));  // total_length > frame
  if (rng.chance(0.05) && !frame.empty()) frame[rng.below(frame.size())] ^= 0xff;
  return frame;
}

TEST(ChecksumProperty, OneRefreshEndpointRewriteMatchesTwoSetFields) {
  // The conntrack NAT rewrite (address + port, one checksum refresh)
  // must leave exactly the bytes that set_field(ip) then set_field(port)
  // — two refreshes — leave, on every frame shape.
  util::Rng rng(768);
  std::size_t rewritten = 0;
  for (int i = 0; i < 40000; ++i) {
    const Bytes frame = random_l4_frame(rng);
    const bool source = rng.chance(0.5);
    const auto ip = static_cast<std::uint32_t>(rng.next());
    const auto port = static_cast<std::uint16_t>(rng.below(65536));

    Packet two_fields{Bytes(frame)};
    const bool ip_ok = openflow::apply_header_action(
        openflow::SetFieldAction{source ? openflow::Field::kIpSrc : openflow::Field::kIpDst, ip},
        two_fields);
    (void)openflow::apply_header_action(
        openflow::SetFieldAction{source ? openflow::Field::kL4Src : openflow::Field::kL4Dst, port},
        two_fields);

    Packet one_refresh{Bytes(frame)};
    const bool rewrite_ok = openflow::rewrite_endpoint(one_refresh, source, ip, port);
    ASSERT_EQ(rewrite_ok, ip_ok) << "case " << i;
    ASSERT_EQ(one_refresh.frame(), two_fields.frame()) << "case " << i << " size " << frame.size();
    if (rewrite_ok) ++rewritten;
  }
  EXPECT_GT(rewritten, 30000u);  // the generator mostly yields rewritable frames
}

}  // namespace
}  // namespace harmless::net
