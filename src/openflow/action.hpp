// openflow/action.hpp — OpenFlow actions.
//
// Actions mutate the frame bytes in place (tags pushed/popped, fields
// rewritten with checksums fixed up) or direct it somewhere (output,
// group, controller). The ActionList is std::vector<Action>; the
// OF1.3 *action set* semantics live in pipeline.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/ipv4.hpp"
#include "net/mac.hpp"
#include "net/packet.hpp"
#include "net/vlan.hpp"
#include "openflow/fields.hpp"

namespace harmless::openflow {

/// OF1.3 reserved port numbers.
enum ReservedPort : std::uint32_t {
  kPortInPort = 0xfffffff8,
  kPortAll = 0xfffffffc,
  kPortController = 0xfffffffd,
  kPortFlood = 0xfffffffb,
  kPortAny = 0xffffffff,
};

struct OutputAction {
  std::uint32_t port = 0;
  friend bool operator==(const OutputAction&, const OutputAction&) = default;
};
struct GroupAction {
  std::uint32_t group_id = 0;
  friend bool operator==(const GroupAction&, const GroupAction&) = default;
};
struct PushVlanAction {  // pushes TPID 0x8100, vid 0; follow with SetField
  friend bool operator==(const PushVlanAction&, const PushVlanAction&) = default;
};
struct PopVlanAction {
  friend bool operator==(const PopVlanAction&, const PopVlanAction&) = default;
};
/// Set-field. Supported fields: eth_src, eth_dst, vlan_vid, vlan_pcp,
/// ip_src, ip_dst, l4_src, l4_dst (checksums recomputed).
struct SetFieldAction {
  Field field = Field::kEthDst;
  std::uint64_t value = 0;
  friend bool operator==(const SetFieldAction&, const SetFieldAction&) = default;
};

/// Send the packet through the conntrack tier: commit (or refresh) the
/// connection for the packet's 5-tuple, optionally translating
/// addresses. The tracker stores the translation at first commit;
/// every later packet of the connection — either direction — gets the
/// stored mapping applied, so NAT survives group re-selection and
/// backend changes (connection affinity). No-op for non-IPv4-TCP/UDP
/// packets and on ct-less datapaths.
struct CtAction {
  enum class Nat : std::uint8_t {
    kNone,    // commit/refresh only
    kSource,  // SNAT: rewrite src to nat_ip + an allocated port in [port_min, port_max]
    kDest,    // DNAT: rewrite dst to nat_ip (port_min != 0 rewrites the dst port too)
  };
  Nat nat = Nat::kNone;
  std::uint32_t nat_ip = 0;
  std::uint16_t port_min = 0;
  std::uint16_t port_max = 0;
  friend bool operator==(const CtAction&, const CtAction&) = default;
};

using Action = std::variant<OutputAction, GroupAction, PushVlanAction, PopVlanAction,
                            SetFieldAction, CtAction>;
using ActionList = std::vector<Action>;

// ---- convenience constructors ------------------------------------------
inline Action output(std::uint32_t port) { return OutputAction{port}; }
inline Action to_controller() { return OutputAction{kPortController}; }
inline Action flood() { return OutputAction{kPortFlood}; }
inline Action group(std::uint32_t id) { return GroupAction{id}; }
inline Action push_vlan() { return PushVlanAction{}; }
inline Action pop_vlan() { return PopVlanAction{}; }
inline Action set_vlan_vid(net::VlanId vid) {
  return SetFieldAction{Field::kVlanVid, static_cast<std::uint64_t>(kVlanPresent | vid)};
}
inline Action set_eth_dst(net::MacAddr mac) {
  return SetFieldAction{Field::kEthDst, mac.to_u64()};
}
inline Action set_eth_src(net::MacAddr mac) {
  return SetFieldAction{Field::kEthSrc, mac.to_u64()};
}
inline Action set_ip_dst(net::Ipv4Addr ip) { return SetFieldAction{Field::kIpDst, ip.value()}; }
inline Action set_ip_src(net::Ipv4Addr ip) { return SetFieldAction{Field::kIpSrc, ip.value()}; }
inline Action set_l4_dst(std::uint16_t port) { return SetFieldAction{Field::kL4Dst, port}; }
inline Action set_l4_src(std::uint16_t port) { return SetFieldAction{Field::kL4Src, port}; }
inline Action ct_commit() { return CtAction{}; }
inline Action ct_snat(net::Ipv4Addr external_ip, std::uint16_t port_min, std::uint16_t port_max) {
  return CtAction{CtAction::Nat::kSource, external_ip.value(), port_min, port_max};
}
inline Action ct_dnat(net::Ipv4Addr target_ip, std::uint16_t target_port = 0) {
  return CtAction{CtAction::Nat::kDest, target_ip.value(), target_port, target_port};
}

/// Apply one header-mutating action to the frame (Output/Group are
/// no-ops here; the pipeline routes those). Returns false if the action
/// could not be applied (e.g. set vlan_vid on an untagged frame).
bool apply_header_action(const Action& action, net::Packet& packet);

/// Rewrite one endpoint of an IPv4 TCP/UDP packet — the source (or,
/// with `source` false, the destination) address and port — with a
/// single checksum refresh: the conntrack NAT rewrite. Byte-identical
/// to set_field(ip) followed by set_field(port), because each refresh
/// zeroes the checksum field before summing and so depends only on the
/// final bytes. Returns false (frame untouched) on a non-IPv4 frame; a
/// frame too short for the ports gets the address rewrite only.
bool rewrite_endpoint(net::Packet& packet, bool source, std::uint32_t ip, std::uint16_t port);

[[nodiscard]] std::string to_string(const Action& action);
[[nodiscard]] std::string to_string(const ActionList& actions);

}  // namespace harmless::openflow
