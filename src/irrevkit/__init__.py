"""irrevkit: irreversibility of finite-dimensional quantum channels.

Measures how well a channel acting on a test ensemble can be undone, and
builds on that single quantity the standard error/disturbance functionals
for quantum measurements, conservation-law lower bounds, and regularized
out-of-time-order correlators.
"""

from .errors import *
from .qcore import *
from .irrev import *
from .comb import *
from .oracles import *
from .way import *
from .otoc import *
from .serialize import *
from .fixtures import *

__version__ = "0.1.0"
