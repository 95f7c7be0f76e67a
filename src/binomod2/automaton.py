"""The carry automaton of F, and the linear representation of its row sums.

Read n and k one bit at a time, lowest first, and add up top = a1*n + a2*k
and bot = a3*n + a4*k with carries. F(n, k) = 1 exactly when every 1-bit of
k is set in n and every 1-bit of bot is set in top (Lucas, twice), and both
sums are nonnegative. The state is the carry pair (top, bottom); a bit pair
that breaks either submask test fails, and failure (None) absorbs. Once n
and k are read, flushing with zero bits ends a nonnegative sum's carry at 0
and a negative one's at -1, so a state accepts when the flush reaches (0, 0)
without failing. Carries stay within the coefficients' absolute sums, so
the automaton is finite.

Summed over the bit of k, the transitions become the matrices M0 and M1 of
a 2-regular linear representation (Allouche & Shallit, "The ring of
k-regular sequences", 1992): a(n) = e0 . M[n_0] . M[n_1] ... acc, and
M0 . acc = acc, so leading zeros of n are harmless. sum_direct walks that
product for one n; batch.row_sums builds it for a whole prefix.
"""

from __future__ import annotations

from .errors import BoundExceeded
from .parity_core import Coeffs

State = tuple[int, int]  # (top carry, bottom carry); None is failure

START: State = (0, 0)

# Most states (or state pairs) one search may visit, and most states live at
# once in sum_direct. The registry's vectors need at most 8 states and any
# vector in [-3, 4]^4 at most 26; huge coefficients can need millions. M0 and
# M1 are dense d x d lists.
STATE_CAP = 256

# fixed points of the zero-bit flush that do not fail; only START accepts
_FLUSHED = {(0, 0), (-1, 0), (-1, -1)}

# bit pairs (n_i, k_i) that do not fail outright; (0, 1) breaks k <= n
_LETTERS = ((0, 0), (1, 0), (1, 1))


def step(c: Coeffs, state: State | None, n_bit: int, k_bit: int) -> State | None:
    """The state after one bit of n and of k, or None once a submask test fails."""
    if state is None or k_bit > n_bit:
        return None
    a1, a2, a3, a4 = c
    top = state[0] + a1 * n_bit + a2 * k_bit
    bot = state[1] + a3 * n_bit + a4 * k_bit
    if bot & 1 and not top & 1:
        return None
    return top >> 1, bot >> 1


def accepts(c: Coeffs, state: State | None) -> bool:
    """Whether F = 1 when the input ends here: flush with zero bits."""
    while state is not None and state not in _FLUSHED:
        state = step(c, state, 0, 0)
    return state == START


def prefix_state(c: Coeffs, bits: int, n: int, k: int) -> State | None:
    """The state after the low `bits` bits of n and k, read from START.

    With bits = m this is the state F(2^m*n' + n, 2^m*k' + k) starts n', k' in.
    """
    state: State | None = START
    for i in range(bits):
        state = step(c, state, n >> i & 1, k >> i & 1)
    return state


def sum_direct(c: Coeffs, n: int) -> int:
    """Row sum a(n) = sum_{k=0..n} F(n, k), read bit-serially through the automaton.

    Counts the prefixes of k that reach each live state, bit by bit of n,
    lowest first; a(n) is the count in accepting states. Time is linear in
    n's bit length. Raises BoundExceeded past STATE_CAP live states.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = {START: 1}
    for n_bit in map(int, reversed(bin(n)[2:])):
        nxt: dict[State, int] = {}
        for s, count in counts.items():
            for t in (step(c, s, n_bit, 0), step(c, s, n_bit, 1)):
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + count
        if len(nxt) > STATE_CAP:
            raise BoundExceeded(f"coefficients {tuple(c)} need more than {STATE_CAP} live states")
        counts = nxt
    return sum(count for s, count in counts.items() if accepts(c, s))


def reachable(c: Coeffs, depth: int) -> list[State]:
    """States reachable from START in at most depth steps, START first.

    Raises BoundExceeded past STATE_CAP states.
    """
    states = [START]
    seen = {START}
    frontier = [START]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for n_bit, k_bit in _LETTERS:
                t = step(c, s, n_bit, k_bit)
                if t is not None and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if not nxt:
            break
        states += nxt
        if len(states) > STATE_CAP:
            raise BoundExceeded(
                f"coefficients {tuple(c)} need more than {STATE_CAP} automaton states"
            )
        frontier = nxt
    return states


def linear_rep(c: Coeffs, depth: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """(M0, M1, acc) over the states reachable in at most depth steps.

    M[b][s][t] counts the bits of k that lead from s to t on bit b of n, so
    row sums of indices below 2^depth are e0 . M[n_0] ... M[n_(depth-1)] . acc.
    Transitions out of the set are dropped; only a longer word would use them.
    """
    states = reachable(c, depth)
    index = {s: i for i, s in enumerate(states)}
    d = len(states)
    m = [[[0] * d for _ in range(d)] for _ in range(2)]
    for i, s in enumerate(states):
        for n_bit, k_bit in _LETTERS:
            j = index.get(step(c, s, n_bit, k_bit))
            if j is not None:
                m[n_bit][i][j] += 1
    acc = [int(accepts(c, s)) for s in states]
    return m[0], m[1], acc


def first_difference(c: Coeffs, s: State | None, t: State | None) -> tuple[int, int] | None:
    """The least (n, k), by n and then k, on which s and t disagree, or None.

    Breadth-first search over the pairs reachable from (s, t) on equal input,
    one bit of n and k per layer. Each pair keeps the least (n, k) among the
    shortest inputs that reach it; the new bit is the most significant so
    far, so a pair's least input extends a parent's least input. Disagreement
    needs k <= n (a 1-bit of k above n fails both sides), so a shorter input
    has a smaller n, and the first layer that disagrees holds the answer.
    Raises BoundExceeded past STATE_CAP pairs.
    """
    labels = {(s, t): (0, 0, 0)}  # pair -> (layer, n, k)
    todo = [(s, t)]
    best = None
    for a, b in todo:
        label = labels[a, b]
        if best is not None and label[0] > best[0]:
            break  # the queue is in layer order, so best's layer is done
        if accepts(c, a) != accepts(c, b) and (best is None or label < best):
            best = label
        if best is not None:
            continue  # the answer is in this layer: expand no further
        depth, n, k = label
        bit = 1 << depth
        for n_bit, k_bit in _LETTERS:
            pair = (step(c, a, n_bit, k_bit), step(c, b, n_bit, k_bit))
            old = labels.get(pair)
            if old is None:
                if len(labels) == STATE_CAP:
                    raise BoundExceeded(f"more than {STATE_CAP} state pairs")
                labels[pair] = (depth + 1, n | bit * n_bit, k | bit * k_bit)
                todo.append(pair)
            elif old[0] > depth:  # first reached in this layer: a later parent may give less
                new = (depth + 1, n | bit * n_bit, k | bit * k_bit)
                if new < old:
                    labels[pair] = new
    return None if best is None else best[1:]
