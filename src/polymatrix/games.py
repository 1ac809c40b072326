"""Polymatrix games: payoffs, pure-strategy equilibria, welfare.

A game couples a directed graph over players with one payoff matrix per
edge and one individual payoff vector per player. Edge ``(i, j)`` means
player ``j`` influences player ``i``'s payoff. Players and strategies
are 0-indexed throughout the library; 1-indexed values appear only in
files and CLI output.

Payoffs have an equivalent linear form: player ``i``'s payoff is the
inner product of a grouped parameter vector with a binary feature vector
built from the profile. ``GroupLayout`` fixes that grouping and
``pack_parameters`` / ``unpack_parameters`` convert between the two
representations.

Every payoff goes through one kernel, ``_strategy_payoffs``: each own
strategy's payoff for every row of a profile block, from a game's or a
grouped vector's terms. A single profile is a one-row block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DegeneratePoaError, InvalidInputError

DEFAULT_ENUMERATION_CAP = 1 << 24
_CHUNK = 1 << 15

StrategyProfile = tuple


def profile_count(strategy_counts) -> int:
    """Number of pure strategy profiles, i.e. the product of the counts."""
    n = 1
    for m in strategy_counts:
        n *= int(m)
    return n


def validate_profile(strategy_counts, x) -> tuple:
    """Check that ``x`` is a valid profile and return it as a tuple of ints."""
    if len(x) != len(strategy_counts):
        raise InvalidInputError(
            f"profile has length {len(x)}, expected {len(strategy_counts)}"
        )
    out = []
    for i, (xi, mi) in enumerate(zip(x, strategy_counts)):
        xi = int(xi)
        if not 0 <= xi < mi:
            raise InvalidInputError(
                f"strategy {xi} out of range [0, {mi}) for player {i}"
            )
        out.append(xi)
    return tuple(out)


def ensure_enumerable(strategy_counts, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Raise :class:`CapacityError` when the profile space exceeds ``cap``."""
    total = profile_count(strategy_counts)
    if total > cap:
        raise CapacityError(
            f"profile space has {total} profiles, exceeding the cap of {cap}",
            profile_count=total,
            cap=cap,
        )
    return total


def all_profiles(strategy_counts):
    """Iterate over all profiles in lexicographic order (player 0 most significant)."""
    return itertools.product(*(range(m) for m in strategy_counts))


def _radix(strategy_counts) -> np.ndarray:
    """Place values of the lexicographic profile code (player 0 most significant)."""
    return np.array([profile_count(strategy_counts[j + 1:]) for j in range(len(strategy_counts))])


def _profile_blocks(strategy_counts, chunk: int = _CHUNK):
    """Yield ``(B, p)`` int64 blocks covering the profile space in lexicographic order.

    The trailing players are the longest suffix whose joint space (``T``
    profiles) fits in ``chunk``. Their columns are written once per pass, by
    broadcasting each digit over its run of rows, into a column-major template
    of ``T``-row runs: one run per prefix (a profile of the leading players),
    at most ``chunk // T`` runs. Each block is a copy of the template for
    consecutive prefixes, so it has at most ``chunk`` rows, and its leading
    columns repeat each prefix digit ``T`` times. Only the prefix codes are
    divided into digits, never the rows of a block.
    """
    counts = [int(m) for m in strategy_counts]
    p = len(counts)
    k = p
    while k > 0 and profile_count(counts[k - 1:]) <= chunk:
        k -= 1
    tail = profile_count(counts[k:])
    prefixes = profile_count(counts[:k])
    runs = min(chunk // tail, prefixes)
    template = np.empty((runs * tail, p), dtype=np.int64, order="F")
    for j in range(k, p):
        # Column j viewed as (outer, m_j, inner): digit b fills [:, b, :].
        column = template[:, j].reshape(-1, counts[j], profile_count(counts[j + 1:]))
        column[...] = np.arange(counts[j])[:, None]
    if k == 0:  # The whole space is one block.
        yield template
        return
    lead = np.asarray(counts[:k], dtype=np.int64)
    lead_radix = _radix(lead)
    for start in range(0, prefixes, runs):
        codes = np.arange(start, min(start + runs, prefixes), dtype=np.int64)
        block = template[: len(codes) * tail].copy(order="F")
        for j, digits in enumerate((codes[:, None] // lead_radix % lead).T):
            block[:, j].reshape(len(codes), tail)[...] = digits[:, None]
        yield block


def _strategy_payoffs(base, terms, block: np.ndarray) -> np.ndarray:
    """Payoffs of every own strategy, one ``(B, m_i)`` row per profile of ``block``.

    Starts from ``base`` and adds column ``block[:, j]`` of ``M`` for each
    ``(j, M)`` of ``terms`` in order, so every caller sums in the same order.
    """
    # Column-major: the row-wise reductions callers make run many times faster.
    vals = np.array(np.broadcast_to(base, (block.shape[0], len(base))), order="F")
    for j, mat in terms:
        vals += mat.T[block[:, j]]
    return vals


def _game_terms(game: "PolymatrixGame", i: int):
    """Kernel terms of player ``i``: individual payoffs, in-neighbor matrices ascending."""
    return game.individual[i], [(j, game.pair_matrix(i, j)) for j in game.neighbors[i]]


def _vector_terms(theta: "GroupedVector"):
    """Kernel terms of a grouped vector: group 0, then every pair group in layout order."""
    lay = theta.layout
    return theta.group(0), [
        (j, lay.matrix_view(theta.values, g)) for g, j in enumerate(lay.others, start=1)
    ]


class PolymatrixGame:
    """Immutable polymatrix game.

    Parameters
    ----------
    strategy_counts : sequence of int
        Number of pure strategies per player.
    individual_payoffs : sequence of array-like
        One vector of length ``m_i`` per player.
    pair_payoffs : mapping ``(i, j) -> array-like``
        One ``m_i x m_j`` matrix per directed edge ``i <- j``. Every stored
        matrix must contain a nonzero entry; edges and matrices correspond
        one to one.
    """

    def __init__(self, strategy_counts, individual_payoffs, pair_payoffs=None):
        counts = tuple(int(m) for m in strategy_counts)
        if not counts:
            raise InvalidInputError("a game needs at least one player")
        if any(m < 1 for m in counts):
            raise InvalidInputError("every player needs at least one strategy")
        p = len(counts)

        if len(individual_payoffs) != p:
            raise InvalidInputError("one individual payoff vector per player required")
        individual = []
        for i, v in enumerate(individual_payoffs):
            arr = np.asarray(v, dtype=np.float64)
            if arr.shape != (counts[i],):
                raise InvalidInputError(
                    f"individual payoff for player {i} has shape {arr.shape}, "
                    f"expected ({counts[i]},)"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"non-finite individual payoff for player {i}")
            arr = arr.copy()
            arr.setflags(write=False)
            individual.append(arr)

        pairs = {}
        for (i, j), mat in (pair_payoffs or {}).items():
            i, j = int(i), int(j)
            if i == j or not (0 <= i < p and 0 <= j < p):
                raise InvalidInputError(f"invalid edge ({i}, {j})")
            arr = np.asarray(mat, dtype=np.float64)
            if arr.shape != (counts[i], counts[j]):
                raise InvalidInputError(
                    f"payoff matrix for edge ({i}, {j}) has shape {arr.shape}, "
                    f"expected ({counts[i]}, {counts[j]})"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"non-finite payoff matrix for edge ({i}, {j})")
            if not np.any(arr):
                raise InvalidInputError(
                    f"all-zero payoff matrix for edge ({i}, {j}); omit the edge instead"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            pairs[(i, j)] = arr

        self._counts = counts
        self._individual = tuple(individual)
        self._pairs = pairs
        nbrs = [[] for _ in range(p)]
        for (i, j) in pairs:
            nbrs[i].append(j)
        self._neighbors = tuple(tuple(sorted(js)) for js in nbrs)

    @property
    def num_players(self) -> int:
        return len(self._counts)

    @property
    def strategy_counts(self) -> tuple:
        return self._counts

    @property
    def individual(self) -> tuple:
        return self._individual

    @property
    def pairs(self) -> dict:
        return dict(self._pairs)

    @property
    def edges(self) -> frozenset:
        return frozenset(self._pairs)

    @property
    def neighbors(self) -> tuple:
        """In-neighbors per player (the players whose strategy enters its payoff)."""
        return self._neighbors

    def degree(self, i: int) -> int:
        return len(self._neighbors[i])

    @property
    def max_degree(self) -> int:
        return max((len(js) for js in self._neighbors), default=0)

    def pair_matrix(self, i: int, j: int) -> np.ndarray:
        return self._pairs[(i, j)]

    def min_payoff_entry(self) -> float:
        """Smallest entry over all stored payoff vectors and matrices."""
        lo = min(float(v.min()) for v in self._individual)
        for mat in self._pairs.values():
            lo = min(lo, float(mat.min()))
        return lo

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolymatrixGame):
            return NotImplemented
        if self._counts != other._counts:
            return False
        if set(self._pairs) != set(other._pairs):
            return False
        if any(
            not np.array_equal(a, b)
            for a, b in zip(self._individual, other._individual)
        ):
            return False
        return all(
            np.array_equal(self._pairs[e], other._pairs[e]) for e in self._pairs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"PolymatrixGame(p={self.num_players}, m={self._counts}, "
            f"edges={len(self._pairs)})"
        )


@dataclass(frozen=True)
class PsneSet:
    """A set of equilibrium profiles together with the slack it was built from.

    ``epsilon == 0`` means exact pure-strategy Nash equilibria. Profiles are
    stored sorted in lexicographic order.
    """

    profiles: tuple
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(sorted(set(self.profiles))))

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def __contains__(self, x) -> bool:
        return tuple(x) in self.as_set()

    def as_set(self) -> frozenset:
        return frozenset(self.profiles)

    def issubset(self, other: "PsneSet") -> bool:
        return self.as_set() <= other.as_set()

    def same_profiles(self, other: "PsneSet") -> bool:
        return self.profiles == other.profiles


def _check_epsilon(epsilon: float) -> None:
    if not epsilon >= 0:
        raise InvalidInputError(f"epsilon must be nonnegative, got {epsilon}")


def _psne_rows(psne: PsneSet, p: int) -> np.ndarray:
    """The profiles of ``psne`` as a ``(len(psne), p)`` block."""
    return np.asarray(psne.profiles, dtype=np.int64).reshape(len(psne), p)


def payoff(game: PolymatrixGame, i: int, x) -> float:
    """Total payoff of player ``i`` at profile ``x``."""
    if not 0 <= i < game.num_players:
        raise InvalidInputError(f"player index {i} out of range")
    x = validate_profile(game.strategy_counts, x)
    return float(_strategy_payoffs(*_game_terms(game, i), np.array([x]))[0, x[i]])


def best_responses(game: PolymatrixGame, i: int, x) -> tuple:
    """All payoff-maximizing strategies of player ``i`` given the others in ``x``."""
    if not 0 <= i < game.num_players:
        raise InvalidInputError(f"player index {i} out of range")
    x = validate_profile(game.strategy_counts, x)
    vals = _strategy_payoffs(*_game_terms(game, i), np.array([x]))[0]
    return tuple(int(a) for a in np.flatnonzero(vals == vals.max()))


def _eps_ne_mask(game: PolymatrixGame, block: np.ndarray, epsilon: float) -> np.ndarray:
    """Which rows of ``block`` no player can improve on by more than ``epsilon``."""
    live = np.arange(block.shape[0])
    for i in range(game.num_players):
        # Player i only tests the rows every earlier player accepted.
        rows = block[live]
        vals = _strategy_payoffs(*_game_terms(game, i), rows)
        live = live[vals[np.arange(len(live)), rows[:, i]] >= vals.max(axis=1) - epsilon]
    ok = np.zeros(block.shape[0], dtype=bool)
    ok[live] = True
    return ok


def is_eps_ne(game: PolymatrixGame, x, epsilon: float) -> bool:
    """True when no unilateral deviation gains more than ``epsilon``."""
    _check_epsilon(epsilon)
    x = validate_profile(game.strategy_counts, x)
    return bool(_eps_ne_mask(game, np.array([x]), epsilon)[0])


def is_psne(game: PolymatrixGame, x) -> bool:
    """True when ``x`` is an exact pure-strategy Nash equilibrium."""
    return is_eps_ne(game, x, 0.0)


def enumerate_eps_ne(
    game: PolymatrixGame, epsilon: float, cap: int = DEFAULT_ENUMERATION_CAP
) -> PsneSet:
    """Enumerate the epsilon-equilibrium set by scanning the whole profile space.

    Deterministic: profiles come out in lexicographic order. Raises
    :class:`CapacityError` when the profile space exceeds ``cap``.
    """
    _check_epsilon(epsilon)
    ensure_enumerable(game.strategy_counts, cap)
    rows = [
        block[_eps_ne_mask(game, block, epsilon)]
        for block in _profile_blocks(game.strategy_counts)
    ]
    profiles = tuple(map(tuple, np.concatenate(rows).tolist()))
    return PsneSet(profiles=profiles, epsilon=float(epsilon))


def enumerate_psne(game: PolymatrixGame, cap: int = DEFAULT_ENUMERATION_CAP) -> PsneSet:
    """Enumerate the exact pure-strategy Nash equilibrium set."""
    return enumerate_eps_ne(game, 0.0, cap=cap)


def payoff_shift(game: PolymatrixGame) -> float:
    """Global constant added to every payoff entry to make all entries nonnegative."""
    return max(0.0, -game.min_payoff_entry())


def _welfare_rows(game: PolymatrixGame, block: np.ndarray, shift: float) -> np.ndarray:
    """Shifted welfare of every row of ``block``, summed player by player."""
    total = np.zeros(block.shape[0])
    for i in range(game.num_players):
        # The played column of _strategy_payoffs, gathered directly in the same order.
        base, terms = _game_terms(game, i)
        own = block[:, i]
        vals = base[own]
        for j, mat in terms:
            vals += mat[own, block[:, j]]
        total += vals + shift * (1 + game.degree(i))
    return total


def welfare(game: PolymatrixGame, x, shift: float = None) -> float:
    """Sum of all players' payoffs after the global nonnegativity shift.

    The shift adds one constant to every stored payoff entry, which leaves
    best responses and hence the equilibrium set unchanged.
    """
    if shift is None:
        shift = payoff_shift(game)
    x = validate_profile(game.strategy_counts, x)
    return float(_welfare_rows(game, np.array([x]), shift)[0])


def welfare_extremes(
    game: PolymatrixGame, psne: PsneSet, cap: int = DEFAULT_ENUMERATION_CAP
):
    """(max welfare over all profiles, min welfare over ``psne``), both shifted."""
    if len(psne) == 0:
        raise InvalidInputError("welfare extremes need a nonempty equilibrium set")
    ensure_enumerable(game.strategy_counts, cap)
    shift = payoff_shift(game)
    # One summation for both, so a best profile that is the worst equilibrium gives PoA 1.
    best = max(
        float(_welfare_rows(game, block, shift).max())
        for block in _profile_blocks(game.strategy_counts)
    )
    worst_eq = float(_welfare_rows(game, _psne_rows(psne, game.num_players), shift).min())
    return best, worst_eq


def price_of_anarchy(
    game: PolymatrixGame, psne: PsneSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Max welfare over all profiles divided by min welfare over ``psne``.

    Raises :class:`DegeneratePoaError` when the minimum equilibrium welfare
    is zero after the shift.
    """
    return _poa_ratio(*welfare_extremes(game, psne, cap=cap))


def _poa_ratio(best: float, worst_eq: float) -> float:
    """``best / worst_eq`` for :func:`welfare_extremes` output; a zero minimum is degenerate."""
    if worst_eq == 0.0:
        raise DegeneratePoaError(
            "minimum equilibrium welfare is zero after the nonnegativity shift",
            max_welfare=best,
            min_equilibrium_welfare=worst_eq,
        )
    return best / worst_eq


def _separable(game: PolymatrixGame, ne_rows: np.ndarray, epsilon: float) -> bool:
    """:func:`check_separability` for the known equilibrium set ``ne_rows``."""
    radix = _radix(game.strategy_counts)
    codes = ne_rows @ radix
    for i in range(game.num_players):
        vals = _strategy_payoffs(*_game_terms(game, i), ne_rows)
        own = vals[np.arange(len(ne_rows)), ne_rows[:, i]]
        # Switching to a strategy that stays in the set (own included) needs no gap.
        moved = codes[:, None] + (np.arange(vals.shape[1]) - ne_rows[:, i:i + 1]) * radix[i]
        if not np.all(np.isin(moved, codes) | (own[:, None] > vals + epsilon)):
            return False
    return True


def check_separability(
    game: PolymatrixGame, epsilon: float, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Check the strict payoff-gap condition between equilibria and deviations.

    True when for every player ``i`` and every equilibrium ``x``, any profile
    obtained by switching ``i``'s strategy out of the equilibrium set loses
    strictly more than ``epsilon`` payoff.
    """
    _check_epsilon(epsilon)
    ne = enumerate_psne(game, cap=cap)
    return _separable(game, _psne_rows(ne, game.num_players), epsilon)


# ---------------------------------------------------------------------------
# Linear form: grouped parameters and indicator features.
# ---------------------------------------------------------------------------


class GroupLayout:
    """Grouping of one player's parameter vector.

    Group 0 holds the individual payoff (length ``m_i``); for every other
    player ``j`` (ascending) there is one group of length ``m_i * m_j``
    holding the pair payoff toward ``j``, flattened row-major so entry
    ``(a, b)`` sits at offset ``a * m_j + b``.
    """

    def __init__(self, player: int, strategy_counts):
        counts = tuple(int(m) for m in strategy_counts)
        if not 0 <= player < len(counts):
            raise InvalidInputError(f"player index {player} out of range")
        self.player = player
        self.counts = counts
        self.others = tuple(j for j in range(len(counts)) if j != player)
        mi = counts[player]
        sizes = [mi] + [mi * counts[j] for j in self.others]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.sizes = tuple(sizes)
        self.offsets = tuple(int(o) for o in offsets)
        self.dim = int(offsets[-1])
        self.num_groups = len(sizes)

    def group_slice(self, g: int) -> slice:
        return slice(self.offsets[g], self.offsets[g + 1])

    def group_player(self, g: int) -> int:
        """Player whose strategies index group ``g`` (own player for group 0)."""
        return self.player if g == 0 else self.others[g - 1]

    def group_of(self, j: int) -> int:
        """Group index of the pair block toward player ``j``."""
        if j == self.player:
            return 0
        return 1 + self.others.index(j)

    def feature(self, a: int, x) -> np.ndarray:
        """Binary feature vector for own strategy ``a`` in context ``x``.

        ``x`` is any profile-length sequence; its entry for the owning player
        is ignored. Every group contains exactly one 1.
        """
        block = self._context_block(a, x)
        v = np.zeros(self.dim)
        v[a] = 1.0
        for g, j in enumerate(self.others, start=1):
            v[self.offsets[g] + a * self.counts[j] + block[0, j]] = 1.0
        return v

    def _context_block(self, a: int, x) -> np.ndarray:
        """Own strategy ``a`` in context ``x`` (owner entry ignored), validated, as one row."""
        if len(x) != len(self.counts):
            raise InvalidInputError(
                f"context has length {len(x)}, expected {len(self.counts)}"
            )
        row = list(x)
        row[self.player] = a
        return np.array([validate_profile(self.counts, row)])

    def matrix_view(self, values: np.ndarray, g: int) -> np.ndarray:
        """Group ``g > 0`` of ``values`` reshaped to its ``m_i x m_j`` matrix."""
        if g == 0:
            raise InvalidInputError("group 0 is a vector, not a matrix")
        j = self.others[g - 1]
        mi = self.counts[self.player]
        return values[self.group_slice(g)].reshape(mi, self.counts[j])


@dataclass
class GroupedVector:
    """A vector laid out according to a :class:`GroupLayout`.

    Used for parameters and for gradients, which share the same grouping.
    """

    layout: GroupLayout
    values: np.ndarray
    _norms: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.layout.dim,):
            raise InvalidInputError(
                f"values have shape {arr.shape}, expected ({self.layout.dim},)"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("grouped vector entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self.values = arr

    @property
    def owner(self) -> int:
        return self.layout.player

    def group(self, g: int) -> np.ndarray:
        return self.values[self.layout.group_slice(g)]

    def group_norms(self) -> np.ndarray:
        if self._norms is None:
            self._norms = np.array(
                [np.linalg.norm(self.group(g)) for g in range(self.layout.num_groups)]
            )
            self._norms.setflags(write=False)
        return self._norms

    def norm_12(self) -> float:
        """Sum of group 2-norms."""
        return float(self.group_norms().sum())

    def norm_inf2(self) -> float:
        """Max group 2-norm."""
        return float(self.group_norms().max())


def featurize(strategy_counts, i: int, a: int, x) -> np.ndarray:
    """Indicator feature vector of own strategy ``a`` in context ``x`` (entry ``i`` ignored)."""
    return GroupLayout(i, strategy_counts).feature(a, x)


def linear_payoff(theta: GroupedVector, a: int, x) -> float:
    """Inner product of parameters with the feature vector, without materializing it."""
    block = theta.layout._context_block(a, x)
    return float(_strategy_payoffs(*_vector_terms(theta), block)[0, a])


def pack_parameters(game: PolymatrixGame, i: int) -> GroupedVector:
    """Grouped parameter vector reproducing player ``i``'s payoffs in linear form."""
    if not 0 <= i < game.num_players:
        raise InvalidInputError(f"player index {i} out of range")
    lay = GroupLayout(i, game.strategy_counts)
    v = np.zeros(lay.dim)
    v[lay.group_slice(0)] = game.individual[i]
    for g, j in enumerate(lay.others, start=1):
        if (i, j) in game.edges:
            v[lay.group_slice(g)] = game.pair_matrix(i, j).ravel()
    return GroupedVector(lay, v)


def unpack_parameters(theta: GroupedVector, threshold: float = 0.0):
    """Split a grouped vector into an individual payoff vector and pair matrices.

    A pair matrix is kept only when its group 2-norm exceeds ``threshold``,
    so exact-zero groups never produce edges.
    """
    lay = theta.layout
    individual = theta.group(0).copy()
    pairs = {}
    for g, j in enumerate(lay.others, start=1):
        if np.linalg.norm(theta.group(g)) > threshold:
            pairs[(lay.player, j)] = lay.matrix_view(theta.values, g).copy()
    return individual, pairs


def game_from_parameters(params, strategy_counts, threshold: float = 0.0) -> PolymatrixGame:
    """Assemble a game from one grouped parameter vector per player."""
    counts = tuple(int(m) for m in strategy_counts)
    if len(params) != len(counts):
        raise InvalidInputError("one parameter vector per player required")
    individual = []
    pairs = {}
    for i, theta in enumerate(params):
        if theta.owner != i:
            raise InvalidInputError(f"parameter vector {i} belongs to player {theta.owner}")
        ind, pp = unpack_parameters(theta, threshold=threshold)
        individual.append(ind)
        pairs.update(pp)
    return PolymatrixGame(counts, individual, pairs)
