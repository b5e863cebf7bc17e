"""Independent reference implementations used to verify the package.

Everything here is written straight from the definitions, in plain Python,
deliberately avoiding the code paths of the package under test.
"""

from __future__ import annotations

import math
from itertools import combinations


def canberra_reference(u, v) -> float:
    """Plain-loop Canberra dissimilarity, including the sliding extension."""
    u, v = list(u), list(v)
    if len(u) > len(v):
        u, v = v, u
    m, big = len(u), len(v)

    def equal_part(a, b):
        total = 0.0
        for x, y in zip(a, b):
            if x + y > 0:
                total += abs(x - y) / (x + y)
        return total / len(a)

    if m == big:
        return equal_part(u, v)
    best = min(equal_part(u, v[o : o + m]) for o in range(big - m + 1))
    ratio = m / big
    value = (m * best + (big - m) * (1.0 - ratio * (1.0 - best))) / big
    return min(max(value, 0.0), 1.0)


def unique_values_reference(segments):
    """(content, length, counts, members) of the distinct segment byte sequences.

    One pass over the segments in trace order: a byte sequence not seen
    before opens a value, and each segment joins the list of its value.
    """
    by_content: dict[bytes, list[int]] = {}
    ends = (segments.start + segments.length).tolist()
    for index, (start, end) in enumerate(zip(segments.start.tolist(), ends)):
        by_content.setdefault(segments.data[start:end], []).append(index)
    content = list(by_content)
    lists = list(by_content.values())
    return (content, [len(c) for c in content], [len(m) for m in lists],
            [index for members in lists for index in members])


def canberra_block_reference(rows, cols):
    """The broadcast matrix kernel that byte-position planes must reproduce.

    ``rows`` are r values of length m and ``cols`` c values of length
    big >= m. Each window of ``cols`` is compared by an (r, c, m) broadcast
    of |a-b| / max(a+b, 1) and ``.sum(axis=2)``; the minimum over windows
    gets the length penalty. Returns the (r, c) block of dissimilarities,
    with the bits the matrix layer has always produced.
    """
    import numpy as np

    a = np.array([list(v) for v in rows], dtype=np.float64)
    b = np.array([list(v) for v in cols], dtype=np.float64)
    m, big = a.shape[1], b.shape[1]

    def windowed(window):
        terms = a[:, None, :] - window[None, :, :]
        np.abs(terms, out=terms)
        den = a[:, None, :] + window[None, :, :]
        np.maximum(den, 1.0, out=den)  # den is 0 only where both bytes are, and then terms is 0
        terms /= den
        return terms.sum(axis=2) / m

    if m == big:
        return windowed(b)
    best = None
    for offset in range(big - m + 1):
        block = windowed(b[:, offset : offset + m])
        best = block if best is None else np.minimum(best, block)
    ratio = m / big
    block = (m * best + (big - m) * (1.0 - ratio * (1.0 - best))) / big
    np.clip(block, 0.0, 1.0, out=block)
    return block


def canberra_matrix_reference(contents):
    """Full dissimilarity matrix of distinct byte values from the broadcast kernel."""
    import numpy as np

    n = len(contents)
    by_length = {}
    for index, content in enumerate(contents):
        by_length.setdefault(len(content), []).append(index)
    d = np.zeros((n, n))
    lengths = sorted(by_length)
    for li, m in enumerate(lengths):
        for big in lengths[li:]:
            rows, cols = by_length[m], by_length[big]
            block = canberra_block_reference([contents[i] for i in rows], [contents[j] for j in cols])
            d[np.ix_(rows, cols)] = block
            d[np.ix_(cols, rows)] = block.T
    np.fill_diagonal(d, 0.0)
    return d


def naive_dbscan(d, epsilon, min_samples):
    """Definition-level DBSCAN: reflexive-transitive closure over core points.

    Clusters are the equivalence classes of the transitive closure of the
    direct core-to-core reachability relation, computed by repeated boolean
    matrix squaring. Border points join the cluster of the lowest-index core
    within epsilon; the rest is noise. Returns (set of frozenset clusters,
    frozenset noise).
    """
    import numpy as np

    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    within = d <= epsilon  # includes i itself via the zero diagonal
    core = within.sum(axis=1) >= min_samples

    reach = within & core[:, None] & core[None, :]
    np.fill_diagonal(reach, core)
    while True:
        expanded = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
        if np.array_equal(expanded, reach):
            break
        reach = expanded

    assigned = {}
    clusters = []
    for i in range(n):
        if not core[i] or i in assigned:
            continue
        component = set(np.flatnonzero(reach[i] & core).tolist()) | {i}
        for j in component:
            assigned[j] = len(clusters)
        clusters.append(set(component))
    for i in range(n):
        if core[i]:
            continue
        reachable_cores = sorted(j for j in np.flatnonzero(within[i] & core))
        if reachable_cores:
            clusters[assigned[reachable_cores[0]]].add(i)
    noise = frozenset(
        i for i in range(n) if not core[i] and i not in {m for c in clusters for m in c}
    )
    return {frozenset(int(m) for m in c) for c in clusters}, noise


def pairwise_metrics(member_sets, noise, labels):
    """(tp, fp, fn) by exhaustive enumeration of unordered index pairs."""
    cluster_of = {}
    for cid, members in enumerate(member_sets):
        for m in members:
            cluster_of[m] = cid
    indices = sorted(cluster_of) + sorted(noise)
    tp = fp = fn = 0
    for a, b in combinations(sorted(indices), 2):
        same_cluster = a in cluster_of and b in cluster_of and cluster_of[a] == cluster_of[b]
        same_type = labels[a] == labels[b]
        if same_cluster and same_type:
            tp += 1
        elif same_cluster and not same_type:
            fp += 1
        elif not same_cluster and same_type:
            fn += 1
    return tp, fp, fn


def texture_class_reference(byte: int) -> str:
    if byte == 0:
        return "zero"
    if 0x20 <= byte <= 0x7E:
        return "printable"
    return "other"


def heuristic_boundaries_reference(payload: bytes) -> list[int]:
    """Transcription of the delta-texture segmentation rule.

    Rule A: boundary before i when the texture class changes at i and the
    new class persists for at least two bytes.
    Rule B: boundary before i when Delta(i) - Delta(i-1) is positive, the
    previous difference Delta(i-1) - Delta(i-2) was non-positive, and the
    texture class changes at i.
    """
    n = len(payload)
    cuts = set()
    classes = [texture_class_reference(b) for b in payload]
    for i in range(1, n):
        if classes[i] != classes[i - 1]:
            run = 1
            j = i + 1
            while j < n and classes[j] == classes[i]:
                run += 1
                j += 1
            if run >= 2:
                cuts.add(i)

    def delta(i):
        return abs(payload[i] - payload[i - 1])

    for i in range(3, n):
        if (
            delta(i) - delta(i - 1) > 0
            and delta(i - 1) - delta(i - 2) <= 0
            and classes[i] != classes[i - 1]
        ):
            cuts.add(i)
    return sorted(cuts)


def overlap_label_reference(start: int, length: int, fields):
    """Label of the field that covers most of [start, start + length).

    ``fields`` are one message's (offset, length, label) triples in offset
    order; ties go to the earlier field. The rule of ``_overlap_label`` in
    ``bench/checks.py``.
    """
    best, best_overlap = None, 0
    for offset, size, label in fields:
        overlap = min(start + length, offset + size) - max(start, offset)
        if overlap > best_overlap:
            best, best_overlap = label, overlap
    return best


def import_segmentation_reference(messages, path, limit=None):
    """The ground-truth import, one field at a time.

    Returns the segmenter name and the ``message``, ``offset``, ``length``,
    ``start`` and ``truth`` lists in start order, or raises the error that
    ``segmentation.import_segmentation`` raises for the document, with its
    message.
    """
    import json

    from typeclust.errors import InconsistentGroundTruthError, MissingMessageError

    def is_field(obj):
        return isinstance(obj, dict) and "len" in obj and isinstance(obj.get("type"), (str, type(None)))

    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as err:
            raise InconsistentGroundTruthError(f"{path}: not a JSON document ({err})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("messages"), list):
        raise InconsistentGroundTruthError(f"{path}: expected an object with a 'messages' list")
    name = doc.get("segmenter", "imported")
    if not isinstance(name, str):
        raise InconsistentGroundTruthError(f"{path}: segmenter must be a string, got {name!r}")
    index_of = {payload: i for i, payload in enumerate(messages)}
    kept = messages[:limit]
    first = [sum(len(m) for m in kept[:i]) for i in range(len(kept))]

    fields_out = []  # (start, message, offset, length, type)
    covered = set()
    for position, entry in enumerate(doc["messages"]):
        if not isinstance(entry, dict):
            raise InconsistentGroundTruthError(
                f"{path}: messages[{position}] is {type(entry).__name__}, expected an object")
        if "payload" in entry:
            key = entry["payload"]
            if not isinstance(key, str):
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] payload must be a hex string, got {key!r}")
            try:
                payload = bytes.fromhex(key)
            except ValueError:
                raise MissingMessageError(f"entry payload {key!r} is not valid hex") from None
            index = index_of.get(payload)
            if index is None:
                raise MissingMessageError(f"no message with payload {key}")
        if "index" in entry:
            named = entry["index"]
            if not isinstance(named, int) or isinstance(named, bool):
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] index must be an integer, got {named!r}")
            if not 0 <= named < len(messages):
                raise MissingMessageError(f"no message with index {named!r}")
            if "payload" in entry and named != index:
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] payload is message {index}, index is {named}")
            index = named
        elif "payload" not in entry:
            raise MissingMessageError(f"entry {entry!r} has neither payload nor index")
        if index in covered:
            raise InconsistentGroundTruthError(f"message {index} is described by more than one entry")
        fields = entry.get("fields")
        if not isinstance(fields, list) or not all(is_field(f) for f in fields):
            raise InconsistentGroundTruthError(
                f"message {index}: entry needs a 'fields' list of "
                "{'len': int, 'type': str|null} objects")
        lengths = [f["len"] for f in fields]
        if any(not isinstance(l, int) or isinstance(l, bool) or l < 1 for l in lengths):
            raise InconsistentGroundTruthError(
                f"message {index}: field lengths must be positive integers, got {lengths}")
        if sum(lengths) != len(messages[index]):
            raise InconsistentGroundTruthError(
                f"message {index}: field lengths sum to {sum(lengths)}, "
                f"payload has {len(messages[index])} bytes")
        covered.add(index)
        if limit is not None and index >= limit:
            continue
        offset = 0
        for field in fields:
            fields_out.append((first[index] + offset, index, offset, field["len"], field.get("type")))
            offset += field["len"]
    fields_out.sort(key=lambda f: f[0])
    columns = list(zip(*fields_out)) or [()] * 5
    return name, dict(zip(("start", "message", "offset", "length", "truth"), map(list, columns)))


def value_labels_reference(values, segments) -> list:
    """Each value's most common member type, the first seen among equals.

    ``Counter.most_common`` keeps insertion order among equal counts, and a
    value's members are in trace order.
    """
    from collections import Counter

    labels, at = [], 0
    for count in values.counts.tolist():
        members = values.members[at : at + count].tolist()
        labels.append(Counter(segments.truth[m] for m in members).most_common(1)[0][0])
        at += count
    return labels


def median_reference(xs) -> float:
    ordered = sorted(xs)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def cluster_stats_reference(d, members):
    """(mean pairwise, minmed, max pairwise) straight from the formulas.

    A cluster of one value has no pairs, and all three are 0.
    """
    if len(members) < 2:
        return 0.0, 0.0, 0.0
    pair = [d[a][b] for a, b in combinations(members, 2)]
    nearest = [
        min(d[a][b] for b in members if b != a) for a in members
    ]
    return sum(pair) / len(pair), median_reference(nearest), max(pair)


def restart_scan_reference(d, member_sets):
    """The merge pass from the paper's definitions: every merge restarts the scan.

    Clusters are ordered by lowest member and their pairs scanned in that
    order; the first pair that meets condition 1 or condition 2 merges, and
    the scan starts again from the first pair. Returns the member lists of
    the fixpoint, ordered by lowest member.
    """
    sets = [sorted(m) for m in member_sets]

    def link(left, right):
        # the first cross pair in row-major order with the least distance
        best = None
        for a in left:
            for b in right:
                if best is None or d[a][b] < best[0]:
                    best = (d[a][b], a, b)
        return best

    def rho(members, anchor, eps):
        # median distance from the link member to the cluster within eps
        inside = [d[anchor][m] for m in members if m != anchor and d[anchor][m] <= eps]
        return median_reference(inside) if inside else None

    def mergeable(left, right):
        d_link, s_ij, s_ji = link(left, right)
        mean_i, minmed_i, d_max_i = cluster_stats_reference(d, left)
        mean_j, minmed_j, d_max_j = cluster_stats_reference(d, right)
        # condition 1: very close, with similar densities around the link
        eps = (d_max_i if len(left) <= len(right) else d_max_j) / 2
        rho_i, rho_j = rho(left, s_ij, eps), rho(right, s_ji, eps)
        if (d_link < max(mean_i, mean_j) and rho_i is not None and rho_j is not None
                and abs(rho_i - rho_j) < 0.01):
            return True
        # condition 2: somewhat close, with similar whole-cluster densities
        if mean_i == 0 or mean_j == 0:
            return False
        return (d_link < (minmed_i / mean_i + minmed_j / mean_j) / 2
                and abs(minmed_i - minmed_j) < 0.002)

    while True:
        sets.sort(key=lambda m: m[0])
        for left, right in combinations(sets, 2):
            if mergeable(left, right):
                sets = [m for m in sets if m is not left and m is not right]
                sets.append(sorted(left + right))
                break
        else:
            return sets


def percent_rank_reference(counts, pivot) -> float:
    return 100.0 * sum(1 for c in counts if c < pivot) / len(counts)


def population_std_reference(counts) -> float:
    mean = sum(counts) / len(counts)
    return math.sqrt(sum((c - mean) ** 2 for c in counts) / len(counts))


def kneedle_reference(xs, ys, sensitivity=1.0):
    """Rightmost confirmed Kneedle knee, one maximum at a time; None if none.

    Normalizes both axes with numpy, as the package does, so the difference
    curve has the same bits; the local maxima of y - x and their
    confirmation are then scanned in a plain loop. ``xs`` must be at least
    10 points long.
    """
    import numpy as np

    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    x_span, y_span = xs[-1] - xs[0], ys.max() - ys.min()
    if x_span <= 0 or y_span <= 0:
        return None
    x_norm = (xs - xs[0]) / x_span
    diff = (ys - ys.min()) / y_span - x_norm
    maxima = [i for i in range(1, diff.size - 1) if diff[i] > diff[i - 1] and diff[i] >= diff[i + 1]]
    spacing = float(np.mean(np.diff(x_norm)))
    confirmed = []
    for position, index in enumerate(maxima):
        threshold = diff[index] - sensitivity * spacing
        end = maxima[position + 1] if position + 1 < len(maxima) else diff.size
        if any(diff[j] < threshold for j in range(index + 1, end)):
            confirmed.append(index)
    return float(xs[confirmed[-1]]) if confirmed else None
