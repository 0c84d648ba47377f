#include "trace.h"

#include <cstdio>

#include "util/json_writer.h"

namespace fdx::bench {

int64_t Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[id].end_s = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = Duration(static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      self[spans_[i].parent] -= Duration(static_cast<int64_t>(i));
    }
  }
  return self;
}

std::string Tracer::ToChromeJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("cat");
    json.String(span.name.substr(0, span.name.find('.')));
    json.Key("ph");
    json.String("X");
    json.Key("ts");
    json.Number(span.start_s * 1e6);
    json.Key("dur");
    json.Number((span.end_s - span.start_s) * 1e6);
    json.Key("pid");
    json.Integer(1);
    json.Key("tid");
    json.Integer(1);
    json.Key("args");
    json.BeginObject();
    json.Key("id");
    json.Integer(static_cast<int64_t>(i));
    json.Key("parent");
    json.Integer(span.parent);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

}  // namespace fdx::bench
