#include "probes.h"

#include "common/guardrails.h"
#include "storage/relation.h"
#include "value/value.h"

namespace perfbench {
namespace {

using gdlog::TupleView;

double PerOp(double seconds, uint64_t ops) {
  return ops == 0 ? 0 : seconds * 1e9 / static_cast<double>(ops);
}

TupleView RowAt(const std::vector<Value>& flat, uint32_t arity, size_t i) {
  return TupleView(flat.data() + i * arity, arity);
}

}  // namespace

ReplayCosts RunReplay(const ReplaySpec& spec, const ReplayRows& rows,
                      int repetitions, SpanLog* log) {
  ReplayCosts out;
  std::vector<double> insert, dedup, build, probe, push, pop;
  const uint32_t ia = spec.insert_rows.arity;
  const size_t insert_n = rows.insert_rows.size() / ia;
  const uint32_t ta = spec.probe_target.arity;
  const uint32_t ka = spec.probe_keys.arity;
  const uint32_t ca = spec.candidates.arity;
  const size_t cand_n = rows.candidates.size() / ca;

  // Queue inputs are built once, untimed: keys are interned the way the
  // engine interns them (a tuple of the choice keys in merge mode, of
  // the whole candidate otherwise), so Push sees the same key shapes.
  gdlog::ValueStore store;
  std::vector<Value> costs(cand_n), keys(cand_n);
  for (size_t i = 0; i < cand_n; ++i) {
    const TupleView row = RowAt(rows.candidates, ca, i);
    costs[i] = spec.cost_column >= 0
                   ? row[static_cast<size_t>(spec.cost_column)]
                   : Value::Int(static_cast<int64_t>(i));
    if (spec.merge) {
      std::vector<Value> k;
      for (uint32_t c : spec.merge_columns) k.push_back(row[c]);
      keys[i] = store.MakeTuple(k);
    } else {
      keys[i] = store.MakeTuple(row);
    }
  }

  const int root = log != nullptr ? log->Begin("replay", NowNs()) : -1;
  for (int rep = 0; rep < repetitions; ++rep) {
    gdlog::MemoryBudget budget;
    gdlog::Relation rel("replay", ia);
    rel.set_memory_budget(&budget);
    uint64_t inserted = 0, hits = 0;
    insert.push_back(PerOp(Timed(log, "replay.insert_miss", [&] {
      for (size_t i = 0; i < insert_n; ++i) {
        inserted += rel.Insert(RowAt(rows.insert_rows, ia, i)).inserted;
      }
    }), insert_n));
    dedup.push_back(PerOp(Timed(log, "replay.insert_hit", [&] {
      for (size_t i = 0; i < insert_n; ++i) {
        hits += !rel.Insert(RowAt(rows.insert_rows, ia, i)).inserted;
      }
    }), insert_n));
    out.inserts = inserted;
    out.hits = hits;

    gdlog::Relation target("replay_target", ta);
    for (size_t i = 0; i < rows.probe_target.size() / ta; ++i) {
      target.Insert(RowAt(rows.probe_target, ta, i));
    }
    size_t index = 0;
    build.push_back(PerOp(Timed(log, "replay.ensure_index", [&] {
      index = target.EnsureIndex(spec.probe_columns);
    }), target.size()));
    out.indexed = target.size();
    const gdlog::Index& idx = target.index(index);
    const size_t key_n = rows.probe_keys.size() / ka;
    uint64_t matches = 0;
    probe.push_back(PerOp(Timed(log, "replay.probe", [&] {
      std::vector<Value> key(spec.key_columns.size());
      for (size_t i = 0; i < key_n; ++i) {
        const TupleView src = RowAt(rows.probe_keys, ka, i);
        for (size_t c = 0; c < key.size(); ++c) {
          key[c] = src[spec.key_columns[c]];
        }
        const TupleView k(key);
        auto it = idx.Probe(gdlog::Index::HashKey(k));
        for (gdlog::RowId row; (row = it.Next()) != gdlog::kNoRow;) {
          const TupleView t = target.Row(row);
          bool eq = true;
          for (size_t c = 0; c < k.size(); ++c) {
            eq = eq && t[spec.probe_columns[c]] == k[c];
          }
          matches += eq;
        }
      }
    }), key_n));
    out.probes = key_n;
    out.matches = matches;

    std::vector<std::vector<Value>> snapshots(cand_n);
    for (size_t i = 0; i < cand_n; ++i) {
      const TupleView row = RowAt(rows.candidates, ca, i);
      snapshots[i].assign(row.begin(), row.end());
    }
    gdlog::CandidateQueue queue(&store, spec.order, spec.merge);
    push.push_back(PerOp(Timed(log, "replay.queue_push", [&] {
      for (size_t i = 0; i < cand_n; ++i) {
        queue.Push(costs[i], keys[i], std::move(snapshots[i]));
      }
    }), cand_n));
    uint64_t pops = 0;
    const double pop_s = Timed(log, "replay.queue_pop", [&] {
      while (queue.Pop()) ++pops;
    });
    pop.push_back(PerOp(pop_s, pops));
    out.pushes = cand_n;
    out.pops = pops;
  }
  if (log != nullptr) log->End(root, NowNs());
  out.insert_ns = Median(insert);
  out.dedup_ns = Median(dedup);
  out.index_build_ns = Median(build);
  out.probe_ns = Median(probe);
  out.push_ns = Median(push);
  out.pop_ns = Median(pop);
  return out;
}

}  // namespace perfbench
