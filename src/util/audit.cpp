#include "util/audit.hpp"

#include "adversary/oplus.hpp"
#include "adversary/structure.hpp"
#include "graph/graph.hpp"
#include "instance/instance.hpp"
#include "knowledge/local_knowledge.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "sim/network.hpp"

namespace rmt::audit {

namespace detail {

void fail(const char* component, const std::string& message) {
  obs::Registry::global()
      .counter("audit.violations", {{"component", component}})
      .inc();
  throw AuditError(component, message);
}

void passed(const char* component) {
  obs::Registry::global().counter("audit.checks", {{"component", component}}).inc();
}

}  // namespace detail

void validate(const NodeSet& s) {
  RMT_PHASE("audit.validate");
  s.debug_validate();
  detail::passed("node_set");
}

void validate(const Graph& g) {
  RMT_PHASE("audit.validate");
  g.debug_validate();
  detail::passed("graph");
}

void validate(const AdversaryStructure& z) {
  RMT_PHASE("audit.validate");
  z.debug_validate();
  detail::passed("adversary");
}

void validate(const RestrictedStructure& r) {
  RMT_PHASE("audit.validate");
  r.debug_validate();
  detail::passed("restricted");
}

void validate(const ViewFunction& gamma) {
  RMT_PHASE("audit.validate");
  gamma.debug_validate();
  detail::passed("view");
}

void validate(const Instance& inst) {
  RMT_PHASE("audit.validate");
  inst.debug_validate();
  detail::passed("instance");
}

void validate(const LocalKnowledge& lk, const AdversaryStructure& z, const ViewFunction& gamma) {
  RMT_PHASE("audit.validate");
  debug_validate(lk, z, gamma);
  detail::passed("knowledge");
}

void validate(const sim::Network& net) {
  RMT_PHASE("audit.validate");
  net.debug_validate();
  detail::passed("sim");
}

std::vector<Diagnostic> check_instance(const Instance& inst) {
  std::vector<Diagnostic> out;
  const auto run = [&out](auto&& fn) {
    try {
      fn();
      return true;
    } catch (const AuditError& e) {
      out.push_back({e.component(), e.what()});
      return false;
    }
  };
  run([&] { validate(inst.graph()); });
  run([&] { validate(inst.adversary()); });
  run([&] { validate(inst.gamma()); });
  run([&] { validate(inst); });
  // One diagnostic suffices for the per-player consistency check — a
  // corrupt derivation would otherwise repeat n times.
  bool knowledge_ok = true;
  inst.graph().nodes().for_each([&](NodeId v) {
    if (!knowledge_ok) return;
    knowledge_ok =
        run([&] { validate(inst.knowledge_of(v), inst.adversary(), inst.gamma()); });
  });
  return out;
}

}  // namespace rmt::audit
