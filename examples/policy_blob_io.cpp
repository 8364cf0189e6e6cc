// Provisioning / interoperability tool for persistent policy blobs and
// binary policy deltas.
//
// The wire formats' claim is compiler- and toolchain-independence: a
// blob or delta written by the gcc build must load/apply byte-for-byte
// in the clang build and vice versa (CI's clang leg drives exactly that
// with this tool). It is also the command-line face of the
// subsystems for provisioning workflows.
//
// Usage:
//   example_policy_blob_io write <path> [version]
//                    compile the default connected-car policy at
//                    [version] (default 1; >= 2 additionally quarantines
//                    the aftermarket entry point — the canonical 1-rule
//                    OTA change), write its blob
//   example_policy_blob_io check <path>
//                    validated load + recompile the same policy locally
//                    + prove the fingerprints and the full workload
//                    decision stream match byte for byte (exit 1 on any
//                    difference or rejection)
//   example_policy_blob_io info <path>
//                    print the validated header — detects blob vs delta
//                    by magic. For a blob, additionally prints the
//                    per-section layout table: offset, size and
//                    alignment of every zero-copy section
//   example_policy_blob_io delta <base-blob> <target-blob> <delta-out>
//                    image-level diff-to-delta: load both blobs, write
//                    the fingerprint-anchored edit script
//   example_policy_blob_io apply <base-blob> <delta> <image-out>
//                    load the base blob, apply the delta, write the
//                    resulting image as a blob (byte-equal to the
//                    target's own blob — the interop invariant)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"

using namespace psme;

namespace {

core::PolicySet default_policy(std::uint64_t version = 1) {
  core::PolicySet policy =
      car::full_policy(car::connected_car_threat_model(), version);
  if (version >= 2) {
    // The canonical 1-rule OTA change every delta flow in this repo
    // ships (car::quarantine_rule — one definition, interop-compared).
    policy.add_rule(car::quarantine_rule());
  }
  return policy;
}

/// Every (check, mode) question of the standard per-vehicle workload.
int compare_workloads(const core::CompiledPolicyImage& a,
                      const core::CompiledPolicyImage& b) {
  int mismatches = 0;
  for (const car::FleetCheck& check : car::default_fleet_checks()) {
    for (const char* mode :
         {"", "normal", "remote-diagnostic", "fail-safe"}) {
      const core::AccessRequest request{check.subject, check.object,
                                        check.access, threat::ModeId{mode}};
      const core::Decision da = a.evaluate(a.resolve(request));
      const core::Decision db = b.evaluate(b.resolve(request));
      if (da.allowed != db.allowed || da.rule_id != db.rule_id ||
          da.reason != db.reason) {
        std::fprintf(stderr, "DECISION MISMATCH: %s\n",
                     request.to_string().c_str());
        ++mismatches;
      }
    }
  }
  return mismatches;
}

bool has_magic(std::span<const std::byte> bytes,
               std::span<const std::byte, 8> magic) {
  return bytes.size() >= magic.size() &&
         std::memcmp(bytes.data(), magic.data(), magic.size()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  const bool three_arg = command == "delta" || command == "apply";
  const bool write = command == "write";
  if ((three_arg && argc != 5) ||
      (!three_arg && write && (argc < 3 || argc > 4)) ||
      (!three_arg && !write && argc != 3)) {
    std::fprintf(stderr,
                 "usage: %s write <blob-path> [version]\n"
                 "       %s check|info <path>\n"
                 "       %s delta <base-blob> <target-blob> <delta-out>\n"
                 "       %s apply <base-blob> <delta> <image-out>\n",
                 argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string path = argv[2];

  try {
    if (write) {
      std::uint64_t version = 1;
      if (argc == 4) {
        char* end = nullptr;
        version = std::strtoull(argv[3], &end, 10);
        if (end == argv[3] || *end != '\0') {
          std::fprintf(stderr, "bad version '%s' (expected a number)\n",
                       argv[3]);
          return 2;
        }
      }
      const core::PolicySet policy = default_policy(version);
      core::PolicyBlobWriter::write_file(policy.image(), path);
      std::printf("wrote %s (format v%u): v%llu, %zu rules, fingerprint "
                  "%016llx\n",
                  path.c_str(), core::kPolicyBlobFormatVersion,
                  static_cast<unsigned long long>(version),
                  policy.image().size(),
                  static_cast<unsigned long long>(policy.image().fingerprint()));
      return 0;
    }
    if (command == "info") {
      const std::vector<std::byte> bytes =
          core::wire::read_file<core::PolicyWireError>(path, "policy file");
      if (has_magic(bytes, core::policy_delta_magic())) {
        const core::PolicyDeltaInfo info = core::PolicyDeltaReader::probe(bytes);
        std::printf("%s: policy delta v%u, base %016llx (v%llu) -> target "
                    "%016llx (v%llu), %u -> %u rules, %u ops, %u new names, "
                    "%llu bytes\n",
                    path.c_str(), info.format_version,
                    static_cast<unsigned long long>(info.base_fingerprint),
                    static_cast<unsigned long long>(info.base_version),
                    static_cast<unsigned long long>(info.target_fingerprint),
                    static_cast<unsigned long long>(info.target_version),
                    info.base_entry_count, info.target_entry_count,
                    info.op_count, info.new_sid_count,
                    static_cast<unsigned long long>(info.total_size));
        return 0;
      }
      const core::PolicyBlobInfo header = core::PolicyBlobReader::probe(bytes);
      const core::CompiledPolicyImage image =
          core::PolicyBlobReader::load(bytes);
      std::printf("%s: image '%s' v%llu (format v%u), %zu rules, %zu names, "
                  "fingerprint %016llx, %llu bytes\n",
                  path.c_str(), image.name().c_str(),
                  static_cast<unsigned long long>(image.version()),
                  header.format_version, image.size(), image.sids().size(),
                  static_cast<unsigned long long>(image.fingerprint()),
                  static_cast<unsigned long long>(header.total_size));
      // The zero-copy layout: every section the loader views in place.
      std::printf("  %-18s %10s %10s %7s %9s\n", "section", "offset", "size",
                  "align", "pad-to-8");
      for (const core::PolicyBlobSection& section :
           core::policy_blob_layout(bytes)) {
        std::size_t align = 1;
        while (align < 8 && section.offset % (align * 2) == 0) align *= 2;
        const std::size_t padded = (section.size + 7) & ~std::size_t{7};
        std::printf("  %-18s %10zu %10zu %7zu %9zu\n", section.name,
                    section.offset, section.size, align,
                    padded - section.size);
      }
      return 0;
    }
    if (command == "check") {
      const core::CompiledPolicyImage loaded =
          core::PolicyBlobReader::load_file(path);
      const core::PolicySet local = default_policy(loaded.version());
      const core::CompiledPolicyImage& compiled = local.image();
      if (loaded.fingerprint() != compiled.fingerprint()) {
        std::fprintf(stderr,
                     "FINGERPRINT MISMATCH: blob %016llx, local %016llx\n",
                     static_cast<unsigned long long>(loaded.fingerprint()),
                     static_cast<unsigned long long>(compiled.fingerprint()));
        return 1;
      }
      const int mismatches = compare_workloads(loaded, compiled);
      if (mismatches != 0) {
        std::fprintf(stderr, "%d decision mismatches\n", mismatches);
        return 1;
      }
      std::printf("%s: fingerprint %016llx verified, full workload "
                  "byte-identical to the local compile\n",
                  path.c_str(),
                  static_cast<unsigned long long>(loaded.fingerprint()));
      return 0;
    }
    if (command == "delta") {
      // Image-level diff-to-delta between two provisioned blobs, each
      // in its own SID space. The writer rejects a target whose SIDs up
      // to the base's anchor name anything other than the base's do.
      const core::CompiledPolicyImage base =
          core::PolicyBlobReader::load_file(path);
      const core::CompiledPolicyImage target =
          core::PolicyBlobReader::load_file(argv[3]);
      core::PolicyDeltaStats stats;
      core::PolicyDeltaWriter::write_file(base, target, argv[4], &stats);
      std::printf("wrote %s: %016llx (v%llu) -> %016llx (v%llu), "
                  "%u copied / %u added / %u removed / %u changed\n",
                  argv[4],
                  static_cast<unsigned long long>(base.fingerprint()),
                  static_cast<unsigned long long>(base.version()),
                  static_cast<unsigned long long>(target.fingerprint()),
                  static_cast<unsigned long long>(target.version()),
                  stats.copied, stats.added, stats.removed, stats.changed);
      return 0;
    }
    if (command == "apply") {
      const core::CompiledPolicyImage base =
          core::PolicyBlobReader::load_file(path);
      const core::CompiledPolicyImage applied =
          core::PolicyDeltaReader::apply_file(base, argv[3]);
      core::PolicyBlobWriter::write_file(applied, argv[4]);
      std::printf("applied %s to %s -> %s: image '%s' v%llu, %zu rules, "
                  "fingerprint %016llx\n",
                  argv[3], path.c_str(), argv[4], applied.name().c_str(),
                  static_cast<unsigned long long>(applied.version()),
                  applied.size(),
                  static_cast<unsigned long long>(applied.fingerprint()));
      return 0;
    }
  } catch (const core::PolicyWireError& error) {
    std::fprintf(stderr, "REJECTED: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
