import pytest

from rootparity.bounds import EtaProfile
from rootparity.complexity import ComplexityReport, TwoAdicResult
from rootparity.numtheory import FactorizationInfo
from rootparity.search import Discrepancy, ScanCriteria, SearchRow
from rootparity.sequence import (
    BalanceReport,
    BitSequence,
    CzCheck,
    PatternReport,
    PrimeContext,
)

RECORDS = [
    FactorizationInfo, EtaProfile, PrimeContext, BitSequence, BalanceReport,
    PatternReport, CzCheck, TwoAdicResult, ComplexityReport, SearchRow,
    Discrepancy, ScanCriteria,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(record):
    values = tuple(range(3, 3 + len(record._fields)))
    rec = record(*values)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    assert rec == values
