// Malformed-input hardening: every text reader (topo::read_model,
// data::read_dataset, topo::read_refine_checkpoint, nb::json_parse) must
// reject arbitrary truncations and corruptions with an error message that
// carries a line number -- never an uncaught exception, abort, or silent
// integer truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "data/rib_io.hpp"
#include "netbase/json.hpp"
#include "topology/model_io.hpp"

namespace {

using nb::Prefix;
using nb::RouterId;
using topo::Model;

/// A realistic serialized model: fit the quickstart pipeline at tiny scale
/// so the text exercises every directive kind (sessions, classes, filters,
/// rankings, lp-overrides).
const std::string& fitted_model_text() {
  static const std::string text = [] {
    core::PipelineConfig config = core::PipelineConfig::with(0.08, 5);
    core::Pipeline pipeline = core::make_pipeline(config);
    core::run_data_stages(pipeline);
    core::run_model_stages(pipeline);
    return topo::model_to_string(pipeline.model);
  }();
  return text;
}

const std::string& dataset_text() {
  static const std::string text = [] {
    core::PipelineConfig config = core::PipelineConfig::with(0.08, 5);
    core::Pipeline pipeline = core::make_pipeline(config);
    core::run_data_stages(pipeline);
    return data::dataset_to_string(pipeline.dataset);
  }();
  return text;
}

template <typename Reader>
void truncation_sweep(const std::string& text, std::size_t max_cuts,
                      const Reader& read) {
  // Bound the cut count, not the stride: each parse is O(cut), so a fixed
  // stride over a large fitted model turns quadratic and dominates the
  // whole suite's runtime.  An off-by-prime stride still lands cuts at
  // every byte offset modulo the line structure.
  const std::size_t stride = std::max<std::size_t>(text.size() / max_cuts, 1);
  for (std::size_t cut = 0; cut < text.size(); cut += stride) {
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = read(text.substr(0, cut), &error))
        << "cut at " << cut;
    // A truncation may still be well-formed (e.g. fewer records); what it
    // may never do is throw, abort, or fail without a message.
    if (!ok) {
      EXPECT_FALSE(error.empty()) << "cut at " << cut;
    }
  }
}

TEST(MalformedInputTest, ModelTruncationsNeverThrow) {
  truncation_sweep(fitted_model_text(), 250,
                   [](const std::string& text, std::string* error) {
                     std::istringstream in(text);
                     return topo::read_model(in, error).has_value();
                   });
}

TEST(MalformedInputTest, DatasetTruncationsNeverThrow) {
  truncation_sweep(dataset_text(), 400,
                   [](const std::string& text, std::string* error) {
                     std::istringstream in(text);
                     return data::read_dataset(in, error).has_value();
                   });
}

TEST(MalformedInputTest, ModelErrorsCarryLineNumbers) {
  const char* bad_inputs[] = {
      "model v1\nrouter nonsense\n",
      "model v1\nrouter 1.0\nsession 1.0\n",
      "model v1\nrouter 1.0\nigp 1.0 1.0 99999999999999999999\n",
      "model v1\nwhatever 1 2 3\n",
      "not-a-model\n",
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(topo::read_model(in, &error).has_value()) << text;
    EXPECT_NE(error.find("line"), std::string::npos) << text << " -> "
                                                     << error;
  }
}

TEST(MalformedInputTest, ModelRejectsOutOfRangeIntegers) {
  // Values that fit uint64 but not the field's real width used to truncate
  // silently; they must be structured errors now.
  const char* bad_inputs[] = {
      // igp cost is uint32
      "model v1\nrouter 1.0\nrouter 2.0\nigp 1.0 2.0 4294967296\n",
      // neighbor-class ASN is uint32 (kInvalidAsn and above reserved)
      "model v1\nrouter 1.0\nclass 4294967295 1 customer\n",
      // lp-override value is uint32
      "model v1\nrouter 1.0\nrouter 2.0\nsession 1.0 2.0\n"
      "lp-override 10.0.0.0/24 1.0 2 4294967296\n",
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(topo::read_model(in, &error).has_value()) << text;
    EXPECT_NE(error.find("line"), std::string::npos) << text << " -> "
                                                     << error;
  }
}

TEST(MalformedInputTest, DatasetErrorsCarryLineNumbers) {
  const char* bad_inputs[] = {
      "point nonsense\n",
      "point 0 1.0\nroute 0 garbage\n",
      // origin at/beyond the invalid sentinel must not wrap silently
      "point 0 1.0\nroute 0 4294967295 1 4294967295\n",
      "point 0 1.0\nroute 0 3 1 4294967295 3\n",  // hop out of range
      "not-a-directive\n",
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(data::read_dataset(in, &error).has_value()) << text;
    EXPECT_NE(error.find("line"), std::string::npos) << text << " -> "
                                                     << error;
  }
}

TEST(MalformedInputTest, JsonDepthBombIsAnErrorNotAStackOverflow) {
  std::string bomb;
  for (int i = 0; i < 5000; ++i) bomb += '[';
  std::string error;
  std::optional<nb::JsonValue> doc;
  EXPECT_NO_THROW(doc = nb::json_parse(bomb, &error));
  EXPECT_FALSE(doc.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(MalformedInputTest, JsonErrorsCarryLineNumbers) {
  const char* bad_inputs[] = {
      "{\"a\": 1,\n \"b\": }\n",
      "[1, 2\n",
      "{\"a\"\n: \"unterminated\n",
  };
  for (const char* text : bad_inputs) {
    std::string error;
    EXPECT_FALSE(nb::json_parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("line"), std::string::npos) << text << " -> "
                                                     << error;
  }
}

TEST(MalformedInputTest, CheckpointGarbageNeverThrows) {
  const char* bad_inputs[] = {
      "",
      "\x01\x02\x03 binary garbage",
      "refine-checkpoint v2\n",
      "refine-checkpoint v1\niteration -\n",
      "refine-checkpoint v1\niteration 1\ndataset-hash zz\n",
      "refine-checkpoint v1\niteration 1\n"
      "dataset-hash 0000000000000001\nmodel v1\n",  // missing trailer
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    std::string error;
    std::optional<topo::RefineCheckpoint> ck;
    EXPECT_NO_THROW(ck = topo::read_refine_checkpoint(in, &error));
    EXPECT_FALSE(ck.has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

}  // namespace
