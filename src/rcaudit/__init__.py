"""Rainbow-connection toolkit.

Colorings within the n - min_degree bound built by a recursive clique
decomposition, an exact solver with canonical-search symmetry breaking,
a rainbow-connectivity verifier with per-pair witnesses, the attachment
counterexample family for the degree-sum recursion claim, and bound
audits over graph corpora.
"""

from .audit import audit_corpus, audit_graph
from .construct import (
    AuditTrace,
    Case,
    construct_coloring,
    decompose,
    run_construction,
    trace_records,
)
from .exact import (
    Budget,
    DecisionStatus,
    ExactStatus,
    rc_exact,
    rc_lower_bound,
)
from .generators import (
    CounterexampleParams,
    counterexample_inequalities,
    gen_counterexample,
    gen_named,
    gen_random_connected,
)
from .graphs import (
    Graph,
    GraphFormatError,
    degree_stats,
    is_complete,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .rainbow import (
    FailingPair,
    coloring_to_text,
    is_rainbow_connected,
    parse_coloring,
)

__version__ = "0.1.0"
