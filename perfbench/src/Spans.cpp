//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

using namespace perfbench;

size_t SpanRecorder::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  S.StartNs = nowNs();
  Spans.push_back(S);
  Stack.push_back(static_cast<int32_t>(Spans.size() - 1));
  return Spans.size() - 1;
}

void SpanRecorder::close(size_t Index) {
  Spans[Index].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == static_cast<int32_t>(Index))
    Stack.pop_back();
}

std::string SpanRecorder::chromeJson() const {
  algspec::JsonWriter W(/*Compact=*/true);
  W.beginObject();
  W.key("traceEvents").beginArray();
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.key("name").value(std::string(S.Name));
    W.key("ph").value("X");
    W.key("pid").value(1);
    W.key("tid").value(1);
    W.key("ts").value(static_cast<double>(S.StartNs - Origin) / 1e3);
    W.key("dur").value(static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    W.key("args").beginObject();
    W.key("request").value(static_cast<uint64_t>(S.Request));
    W.key("span").value(static_cast<uint64_t>(I));
    W.key("parent").value(static_cast<int64_t>(S.Parent));
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}
