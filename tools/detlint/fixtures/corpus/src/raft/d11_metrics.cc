// Fixture: rule D11 — metric-name hygiene. Registration names must be
// string literals (dynamic names defeat pre-registration and explode
// cardinality) and every emitted name must appear in the metric-name
// registry in docs/OBSERVABILITY.md (the corpus carries its own copy).
#include <string>

namespace fixture {

struct Registry {
  void counter(const char* name);
  void histogram(const char* name);
  void add(const std::string& name, long delta);
};

struct Probe {
  Registry metrics_;

  void setup(int term) {
    // Negatives: literal names listed in the corpus registry doc.
    metrics_.counter("fixture.documented");
    metrics_.histogram("fixture.lat_us");
    // Positive: literal name missing from the registry doc.
    metrics_.counter("fixture.undocumented");  // detlint-expect: D11
    // Positive: named in the doc's prose, but no registry-table row.
    metrics_.counter("fixture.prose_only");  // detlint-expect: D11
    // Positives: dynamically constructed names.
    metrics_.add("fixture.term." + std::to_string(term), 1);  // detlint-expect: D11
    const std::string picked = pick();
    metrics_.add(picked, 1);  // detlint-expect: D11
  }

  std::string pick();
};

}  // namespace fixture
